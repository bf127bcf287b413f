#!/usr/bin/env bash
# Every DAUTH_DISCLOSE marker in src/ must be load-bearing: with that one
# marker disabled, dauth-taint must report at least one finding. A marker
# that suppresses nothing documents a release that the analysis cannot see,
# so it is either stale or hides a gap in the analysis; both fail here.
#
# The Secret-to-wire choke point in src/wire/writer.h is exempt: every call
# site that reaches it is checked on its own.
#
# Usage: tools/check_disclosures.sh [path/to/dauth-taint]   (default build/tools/dauth-taint)
set -euo pipefail

cd "$(dirname "$0")/.."
TAINT="${1:-build/tools/dauth-taint}"
[[ -x "$TAINT" ]] || { echo "check_disclosures: no dauth-taint at $TAINT" >&2; exit 2; }

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

checked=0
inert=0
while IFS=: read -r file line _; do
  [[ "$file" == src/wire/writer.h ]] && continue
  rm -rf "$WORK/src"
  cp -r src "$WORK/src"
  sed -i "${line}s/DAUTH_DISCLOSE(/DAUTH_DISABLED(/" "$WORK/$file"
  checked=$((checked + 1))
  if "$TAINT" --no-contracts "$WORK/src" > /dev/null; then
    echo "inert DAUTH_DISCLOSE at $file:$line: disabling it leaves dauth-taint at 0 findings" >&2
    inert=$((inert + 1))
  fi
done < <(grep -rn --include='*.h' --include='*.cpp' 'DAUTH_DISCLOSE(' src | sort -t: -k1,1 -k2,2n)

echo "check_disclosures: $checked marker(s) checked, $inert inert"
[[ "$inert" == 0 ]]
