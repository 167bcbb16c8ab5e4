"""``repro.workloads`` - the paper's evaluation workloads.

Each workload has two layers: real codelets exercised on the in-process
runtime (correctness), and declared-size job graphs executed by the
simulated platforms (performance shape at paper scale).
"""
