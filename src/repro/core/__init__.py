"""``repro.core`` - the Fix ABI: handles, data, thunks, encodes, evaluation.

This package is the paper's primary contribution (section 3): a common,
serializable representation of computations shared by users, programs, and
the platform.  Everything else in ``repro`` (the Fixpoint runtime, the
cluster simulator, the baselines) is built on these types.
"""
