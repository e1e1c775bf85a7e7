#!/usr/bin/env bash
# Wall-clock trajectory of the simulation substrate: times a fixed bench
# subset (fig8 on armn1, fig11 on epyc2p) serially and with the parallel
# sweep enabled, then emits BENCH_sched.json at the repo root. Future perf
# PRs append to the history by re-running this.
#
#   scripts/bench_wallclock.sh [build_dir]   # default: build/
set -euo pipefail
shopt -s inherit_errexit
cd "$(dirname "$0")/.."

build="${1:-build}"
out="BENCH_sched.json"
jobs="$(nproc)"

for bin in bench_fig8_bcast bench_fig11_allreduce; do
  if [ ! -x "$build/bench/$bin" ]; then
    echo "error: $build/bench/$bin not built (run cmake --build $build -j)" >&2
    exit 2
  fi
done

# Best-of-2 wall-clock seconds for one invocation.
time_target() {
  local best=""
  for _ in 1 2; do
    local t0 t1 secs
    t0=$(date +%s.%N)
    "$@" > /dev/null
    t1=$(date +%s.%N)
    secs=$(awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.3f", b - a}')
    if [ -z "$best" ] || awk -v s="$secs" -v m="$best" 'BEGIN{exit !(s < m)}'
    then
      best="$secs"
    fi
  done
  echo "$best"
}

declare -A secs
keys=()
for target in fig8_armn1 fig11_epyc2p; do
  case "$target" in
    fig8_armn1)  cmd=("$build/bench/bench_fig8_bcast" --preset=armn1) ;;
    fig11_epyc2p) cmd=("$build/bench/bench_fig11_allreduce" --preset=epyc2p) ;;
  esac
  secs[$target]=$(time_target "${cmd[@]}")
  key="${target}_jobs${jobs}"
  secs[$key]=$(time_target "${cmd[@]}" "--jobs=$jobs")
  keys+=("$target" "$key")
  echo "$target: ${secs[$target]} s, $key: ${secs[$key]} s"
done

{
  echo "{"
  echo "  \"generated\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"host_cores\": $jobs,"
  echo "  \"wall_clock_seconds\": {"
  first=1
  for key in "${keys[@]}"; do
    [ $first -eq 0 ] && echo ","
    first=0
    printf '    "%s": %s' "$key" "${secs[$key]}"
  done
  echo ""
  echo "  }"
  echo "}"
} > "$out"

echo "wrote $out"
