"""``repro.fixpoint`` - the executable in-process Fixpoint runtime.

A multi-worker evaluator for Fix programs (paper section 4.2): shared
runtime storage, ahead-of-time linked codelets, a shared job queue, and
direct-jump invocation with no processes or containers on the hot path.
"""
