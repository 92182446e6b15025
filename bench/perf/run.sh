#!/usr/bin/env bash
# The benchmark's one command; see bench/perf/README.md.
exec python3 "$(dirname "$0")/run.py" "$@"
