#!/bin/sh
# Build mjoin and mjbench from this checkout's sources and run one
# benchmark workload.  Run from the root of the repository:
#
#   sh bench/e2e/run.sh --workload W --seed S --seconds N --trace 0|1
#
# --trace 1 becomes mjbench's --trace .bench_build/trace (the traced
# replay and its per-layer metrics); every other argument is passed to
# 'mjbench run' as it is.  The serve workloads run pinned to one CPU
# when taskset is installed.  The last line of the output is the result.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: run from the root of a multijoin checkout" >&2
  exit 2
fi

build=.bench_build
dune build --root . --build-dir "$build" --cache=disabled \
  ./bench/e2e/mjbench.exe ./bin/main.exe >&2

n=$#
while [ "$n" -gt 0 ]; do
  arg=$1
  shift
  n=$((n - 1))
  if [ "$arg" = --trace ]; then
    [ "$n" -gt 0 ] || { echo "run.sh: --trace needs 0 or 1" >&2; exit 2; }
    value=$1
    shift
    n=$((n - 1))
    if [ "$value" = 1 ]; then
      set -- "$@" --trace "$build/trace"
    fi
  else
    set -- "$@" "$arg"
  fi
done

exe=$build/default/bench/e2e/mjbench.exe

# A serve workload's client and daemon take turns, one request at a
# time: on one CPU neither ever waits for an idle core to wake up.
case " $* " in
*" --workload serve-"*)
  cpus=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status 2>/dev/null || true)
  cpu=${cpus##*[,-]}
  if [ -n "$cpu" ] && command -v taskset >/dev/null 2>&1; then
    exec taskset -c "$cpu" "$exe" run "$@"
  fi
  ;;
esac
exec "$exe" run "$@"
