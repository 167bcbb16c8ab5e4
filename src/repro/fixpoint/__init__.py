"""``repro.fixpoint`` - the executable in-process Fixpoint runtime.

An evaluator for Fix programs (paper section 4.2): runtime storage,
ahead-of-time linked codelets, and direct-jump invocation with no
processes or containers on the hot path.
"""
