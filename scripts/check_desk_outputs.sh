#!/bin/sh
# Check that the committed desk artifacts reproduce byte for byte.
#
# Runs scripts/run_all_desk.sh unchanged in a temporary directory that links
# this checkout's scripts/ and configs/, with a gcs on PATH that runs this
# checkout's src/. The configs name the weights and models by relative paths,
# so every experiment reads the files regenerated there. Then compares the
# rerun's out/ with the committed out/: a changed, added or missing file fails
# the check and is named. out/ is never written. Run it from anywhere.
set -e

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
ln -s "$root/scripts" "$root/configs" "$tmp"
printf '#!/bin/sh\nexec python3 -m gcs.cli "$@"\n' > "$tmp/gcs"
chmod +x "$tmp/gcs"
export PATH="$tmp:$PATH" PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
(cd "$tmp" && sh scripts/run_all_desk.sh >/dev/null)
diff -rq "$root/out" "$tmp/out"
echo "all desk outputs reproduce"
