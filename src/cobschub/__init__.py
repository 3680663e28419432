"""Schubert calculus for the algebraic cobordism of complete flag varieties.

The engine works over the rationalized Lazard ring (``ringcore``, ``fgl``),
presents the cobordism ring of the rank-n full flag variety (``flagring``),
and computes Bott-Samelson classes (``weylops``, ``schubert``) and their
products with exact rational arithmetic; ``cli`` and ``selftest`` serve it.
The package binds no names: import from its modules.
"""
