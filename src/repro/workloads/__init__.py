"""``repro.workloads`` - the paper's evaluation workloads.

Fig. 8b's and fig. 10's jobs are one thunk tree each: the runtime
evaluates it over real blobs, and the simulated platforms run the job
read off it over declared-size leaves (``JobGraph.from_encode``).
"""
