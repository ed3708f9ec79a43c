"""The exact symbolic layer: group law from brackets, translation as a
polynomial substitution, and the extended algebra acting on the span of
translated coordinates — all over exact rationals.

Run:  python3 demos/symbolic_group_law.py [--group heisenberg]
"""

import argparse
from fractions import Fraction

from magweyl.nilpotent import (
    algebra,
    bch_product,
    build_translate_span,
    left_translation_map,
    registry_names,
    semidirect_nilpotency_check,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--group", default="heisenberg", choices=registry_names())
    args = parser.parse_args()

    alg = algebra(args.group)
    print("group %s: dimension %d, nilpotency step %d" % (alg.name, alg.dim, alg.step))

    g = [Fraction(1, 2) if i == 0 else Fraction(0) for i in range(alg.dim)]
    h = [Fraction(1, 3) if i == min(1, alg.dim - 1) else Fraction(0) for i in range(alg.dim)]
    gh = bch_product(alg, g, h)
    hg = bch_product(alg, h, g)
    print("g       = %s" % (g,))
    print("h       = %s" % (h,))
    print("g * h   = %s" % (gh,))
    print("h * g   = %s" % (hg,))
    print("commutative: %s" % ("yes" if gh == hg else "no"))

    # Left translation is polynomial substitution; composing two of them
    # is the translation by the group product, exactly.
    map_g = left_translation_map(alg, g)
    map_h = left_translation_map(alg, h)
    composed = map_h.compose(map_g)
    direct = left_translation_map(alg, bch_product(alg, g, h))
    print("translation composition equals product translation: %s"
          % ("yes" if composed == direct else "no"))

    # Translates of the linear coordinates span a finite space; the group
    # extended by that span stays nilpotent.
    span = build_translate_span(alg)
    step, is_nil = semidirect_nilpotency_check(alg, span)
    print("translate span dimension: %d" % span.dim)
    print("extended algebra: dimension %d, step %d, nilpotent: %s"
          % (alg.dim + span.dim, step, "yes" if is_nil else "no"))


if __name__ == "__main__":
    main()
