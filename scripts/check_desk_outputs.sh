#!/bin/sh
# Check that the committed desk artifacts reproduce byte for byte.
#
# Runs scripts/run_all_desk.sh unchanged in a temporary directory that links
# this checkout's scripts/ and configs/, with a gcs on PATH that runs this
# checkout's src/. The configs name the weights and models by relative paths,
# so every experiment reads the files regenerated there. Then compares the
# rerun's out/ with the committed out/: a changed, added or missing file fails
# the check and is named. out/ is never written. Run it from anywhere.
# When the files differ, it also prints the OpenBLAS core numpy uses: the
# committed files were written with the SkylakeX kernels, and another core
# can change the last bit of a float.
set -e

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
ln -s "$root/scripts" "$root/configs" "$tmp"
printf '#!/bin/sh\nexec python3 -m gcs.cli "$@"\n' > "$tmp/gcs"
chmod +x "$tmp/gcs"
export PATH="$tmp:$PATH" PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
(cd "$tmp" && sh scripts/run_all_desk.sh >/dev/null)
if ! diff -rq "$root/out" "$tmp/out"; then
    core=$(cd "$root/tests" && python3 -c 'import conftest; print(conftest.blas_core())')
    echo "desk outputs differ; OpenBLAS core $core" >&2
    exit 1
fi
echo "all desk outputs reproduce"
