"""Retired implementations kept as test-only reference oracles.

Each module here holds code that used to ship in ``src/`` and was
replaced by a faster engine.  The property tests assert the engine in
``src/`` is bit-identical to its oracle.
"""
