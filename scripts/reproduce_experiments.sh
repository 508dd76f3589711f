#!/bin/sh
# Run every CLI experiment at the desk scale (L = 40, n = 2048) into out/.
# With one BLAS thread on a 2-core machine the whole set takes about 38 s:
# resolvent-sweep about 15 s, spectrum --H 0.001 about 8 s, relative-bound
# about 7 s, orbital about 3 s, and every other command 1.5 s or less.
set -e

OUT=${1:-out}
COMMON="--L 40 --n 2048 --nu 1.0 --seed 0"

neelwall solve-static      $COMMON --out "$OUT/static"
neelwall solve-moving      $COMMON --H 0.001 --out "$OUT/moving"
neelwall mobility          $COMMON --H=-0.002,-0.001,-0.0005,0.0005,0.001,0.002 \
                           --out "$OUT/mobility"
neelwall spectrum          $COMMON --H 0 --out "$OUT/spectrum_static"
neelwall spectrum          $COMMON --H 0.001 --out "$OUT/spectrum_moving"
neelwall relative-bound    $COMMON --H 0.001 --out "$OUT/relative_bound"
neelwall simulate          $COMMON --H 0 --dt 0.01 --out "$OUT/simulate"
neelwall orbital           $COMMON --H 0.001 --dt 0.005 --out "$OUT/orbital"
neelwall appendix-check    $COMMON --out "$OUT/appendix"
neelwall resolvent-sweep   $COMMON --out "$OUT/resolvent"

echo "all manifests:"
ls "$OUT"/*/manifest.json
