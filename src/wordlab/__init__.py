"""Combinatorics-on-words toolkit.

Words and their periodicity structure, n-divisibility with exhaustive
oracles against the closed-form length bounds, Dilworth colorings,
selective and essential heights with the letter-coding lemmas, the
Schensted correspondence with permutation censuses, square/cube-free
substitutions, and monomial-algebra growth classification.
"""
