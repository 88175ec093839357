"""Regenerate the frozen special-function reference tables in test_limits.py.

Independent arbitrary-precision series evaluation (mpmath, 40 significant
digits); run manually when a spot-point list changes, and paste the output
over the tables:

    python tests/make_special_refs.py
"""

import mpmath as mp

mp.mp.dps = 40

AI_POINTS = [-14.5, -11.0, -8.0, -6.2, -3.0, -1.0, 0.0, 2.5, 6.2, 12.0]
J_POINTS = [
    (0, 0.5), (0, 7.3), (0, 16.5), (0, 29.0), (0, 55.0),
    (1, 2.0), (2, 1.0), (2, 12.0), (3, 24.0), (5, 40.0),
]
# where Ai decays, checked to relative accuracy
AI_DECAY_POINTS = [4.0, 5.0, 6.0, 6.5, 8.0, 12.0, 20.0]
# large arguments and an order above the argument
J_WIDE_POINTS = [(0, 100.0), (2, 80.0), (20, 17.0), (5, 250.0), (40, 30.0), (60, 40.0)]


def _airy_table(name, points, derivative):
    print(f"{name} = [")
    for x in points:
        print(f'    ({x!r}, "{mp.nstr(mp.airyai(mp.mpf(x), derivative), 40)}"),')
    print("]\n")


def _bessel_table(name, points):
    print(f"{name} = [")
    for b, z in points:
        print(f'    ({b}, {z!r}, "{mp.nstr(mp.besselj(b, mp.mpf(z)), 40)}"),')
    print("]\n")


def main():
    _airy_table("AI_REFERENCE", AI_POINTS, 0)
    _airy_table("AIP_REFERENCE", AI_POINTS, 1)
    _bessel_table("BESSEL_REFERENCE", J_POINTS)
    _airy_table("AI_DECAY_REFERENCE", AI_DECAY_POINTS, 0)
    _airy_table("AIP_DECAY_REFERENCE", AI_DECAY_POINTS, 1)
    _bessel_table("BESSEL_WIDE_REFERENCE", J_WIDE_POINTS)


if __name__ == "__main__":
    main()
