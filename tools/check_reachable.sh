#!/usr/bin/env bash
# Link-time reachability check for libabg.a.
#
# Builds the library and every product binary -- the tools/, bench/ and
# examples/ executables plus wallbench, which is built from its own
# CMakeLists -- at -O0 with one section per function and --gc-sections,
# so a binary keeps exactly the library functions it can reach.  Every
# strong (T) abg:: function of libabg.a that no product binary keeps must
# be listed in tools/reachability_allowlist.txt with a reason; an allowlist
# entry that is reachable or no longer defined is stale.  Exits 1 on
# either, 0 otherwise.
#
# -O0 matters: at -O2 a function whose only callers sit in its own
# translation unit may be inlined into them and then reported unreachable.
#
# Usage (from anywhere in the repository):  tools/check_reachable.sh
# Builds into build-reachability/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/build-reachability"
allowlist="$root/tools/reachability_allowlist.txt"
jobs="$(nproc 2> /dev/null || echo 2)"

flags=(
  -DCMAKE_BUILD_TYPE=Debug
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

cmake -S "$root" -B "$build/main" "${flags[@]}" > /dev/null
cmake --build "$build/main" -j "$jobs" > /dev/null
cmake -S "$root/wallbench" -B "$build/wallbench" "${flags[@]}" > /dev/null
cmake --build "$build/wallbench" -j "$jobs" > /dev/null

binaries=()
for dir in tools bench examples; do
  while IFS= read -r bin; do
    binaries+=("$bin")
  done < <(find "$build/main/$dir" -maxdepth 1 -type f -perm -u+x | sort)
done
binaries+=("$build/wallbench/wallbench")

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Symbols are compared by mangled name, so a constructor or destructor
# variant that no binary keeps (say, the deleting destructor of an
# abstract class) counts on its own.  `nm` type T is a strong global
# function.
nm --defined-only "$build/main/src/libabg.a" |
  sed -n 's/^[0-9a-f]* T //p' | LC_ALL=C sort -u > "$tmp/library"
nm --defined-only "${binaries[@]}" |
  sed -n 's/^[0-9a-f]* [A-Za-z] //p' | LC_ALL=C sort -u > "$tmp/reached"
# "<mangled><TAB><demangled>" for every unreached abg:: function.
LC_ALL=C comm -23 "$tmp/library" "$tmp/reached" > "$tmp/mangled"
c++filt < "$tmp/mangled" | paste "$tmp/mangled" - |
  awk -F'\t' '$2 ~ /^abg::/' > "$tmp/pairs"
cut -f2 "$tmp/pairs" | LC_ALL=C sort -u > "$tmp/unreachable"
total="$(c++filt < "$tmp/library" | grep -c '^abg::' || true)"

# Allowlist lines are "<demangled symbol> # <reason>"; blank lines and
# lines starting with '#' are comments.
: > "$tmp/allowed"
status=0
while IFS= read -r line; do
  case "$line" in '' | '#'*) continue ;; esac
  symbol="${line%% # *}"
  reason="${line#* # }"
  if [ "$symbol" = "$line" ] || [ -z "${reason// /}" ]; then
    echo "allowlist entry without a reason: $line"
    status=1
    continue
  fi
  printf '%s\n' "$symbol" >> "$tmp/allowed"
done < "$allowlist"
LC_ALL=C sort -u -o "$tmp/allowed" "$tmp/allowed"

LC_ALL=C comm -23 "$tmp/unreachable" "$tmp/allowed" > "$tmp/new"
LC_ALL=C comm -13 "$tmp/unreachable" "$tmp/allowed" > "$tmp/stale"

echo "checked $total library functions against" \
  "${#binaries[@]} product binaries"
if [ -s "$tmp/new" ]; then
  echo "unreachable from every product binary and not allowlisted:"
  sed 's/^/  /' "$tmp/new"
  status=1
fi
if [ -s "$tmp/stale" ]; then
  echo "stale allowlist entries (reachable or no longer defined):"
  sed 's/^/  /' "$tmp/stale"
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "ok: $(wc -l < "$tmp/pairs") unreachable functions, all allowlisted"
fi
exit "$status"
