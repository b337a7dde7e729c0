#!/usr/bin/env bash
# Line-coverage runner: configures the "coverage" preset (gcov
# instrumentation), builds, runs the tier-1 suite plus the chaos tier, and
# prints per-directory line coverage for src/, then the src/ functions no
# test executed a line of (the candidates for deletion).
#
# Usage: tools/coverage.sh [extra ctest args...]
#
# The summary prefers gcovr when installed; otherwise it falls back to raw
# gcov and aggregates its per-file "Lines executed" report with awk. The
# current baseline is recorded in docs/observability.md — update it there
# when coverage moves materially.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v gcov >/dev/null 2>&1; then
  echo "coverage.sh: gcov not found (install gcc tooling); aborting" >&2
  exit 1
fi

JOBS="$(nproc 2>/dev/null || echo 4)"
BUILD_DIR=build-coverage

cmake --preset coverage >/dev/null
cmake --build --preset coverage -j"${JOBS}"

# Reset counters from previous runs so the numbers reflect exactly this run.
find "${BUILD_DIR}" -name '*.gcda' -delete

# Tier-1 (the default ctest sweep) plus an explicit chaos-tier pass.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j"${JOBS}" "$@"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j"${JOBS}" -L chaos

# Zero-hit functions: those a src/ translation unit emits (in namespace
# kflex) with no executed line in any translation unit, from `gcov -f`.
# An inline function counts as hit if any unit that emits it ran it.
zero_hit_functions() {
  echo
  echo "src/ functions with 0% of lines executed:"
  {
    echo "@src"
    find "${BUILD_DIR}/src" -name '*.gcda' -print0 |
      xargs -0 -r gcov -f -n -r -s "$(pwd)" 2>/dev/null
    echo "@other"
    find "${BUILD_DIR}" -name '*.gcda' -not -path "${BUILD_DIR}/src/*" -print0 |
      xargs -0 -r gcov -f -n -r -s "$(pwd)" 2>/dev/null
  } |
    awk '
      /^@src/ { in_src = 1; next }
      /^@other/ { in_src = 0; next }
      /^Function / {
        fn = $2
        gsub(/'\''/, "", fn)
        if (fn !~ /^_ZZ?NK?5kflex/) fn = ""
        next
      }
      /^File / || /^No executable lines/ { fn = ""; next }
      /^Lines executed:/ && fn != "" {
        split($0, parts, /[:% ]+/)
        if (parts[3] + 0 > 0) hit[fn] = 1
        if (in_src) emitted[fn] = 1
        fn = ""
      }
      END { for (f in emitted) if (!(f in hit)) print f }' |
    if command -v c++filt >/dev/null 2>&1; then c++filt; else cat; fi |
    sort | sed 's/^/  /'
}

if command -v gcovr >/dev/null 2>&1; then
  gcovr --root . --filter 'src/' --print-summary --sort-percentage \
        "${BUILD_DIR}"
  zero_hit_functions
  exit 0
fi

# Fallback: run gcov over every counter file and aggregate per directory.
# gcov prints, for each source file:
#   File 'src/ebpf/text_asm.cc'
#   Lines executed:95.21% of 480
# A source file appears once per translation unit that includes it; the
# per-file maximum is kept as a close (slightly conservative) union estimate.
find "${BUILD_DIR}" -name '*.gcda' -print0 |
  xargs -0 -r gcov -n -r -s "$(pwd)" 2>/dev/null |
  awk '
    /^File / {
      file = $0
      sub(/^File '\''/, "", file)
      sub(/'\''$/, "", file)
      next
    }
    /^Lines executed:/ && file ~ /^src\// {
      split($0, parts, /[:% ]+/)
      pct = parts[3] + 0; total = parts[5] + 0
      covered = (pct / 100.0) * total
      if (covered > fhit[file]) fhit[file] = covered
      ftotal[file] = total
      file = ""
    }
    END {
      for (f in ftotal) {
        dir = f
        sub(/\/[^\/]+$/, "", dir)
        printf "%s %d %d\n", dir, ftotal[f], fhit[f]
      }
    }' |
  sort |
  awk '
    {
      lines[$1] += $2; hit[$1] += $3
      total_lines += $2; total_hit += $3
      if (!($1 in seen)) { order[++n] = $1; seen[$1] = 1 }
    }
    END {
      printf "%-24s %10s %10s %8s\n", "directory", "lines", "covered", "pct"
      for (i = 1; i <= n; i++) {
        d = order[i]
        printf "%-24s %10d %10d %7.1f%%\n", d, lines[d], hit[d], 100.0 * hit[d] / lines[d]
      }
      if (total_lines > 0) {
        printf "%-24s %10d %10d %7.1f%%\n", "TOTAL (src/)", total_lines,
               total_hit, 100.0 * total_hit / total_lines
      }
    }'
zero_hit_functions
