"""``repro.bench`` - the experiment harness regenerating every figure.

One module per paper artifact (fig7a, fig7b, fig8a, fig8b, fig9, fig10,
table2, summary), each exposing ``run(scale=...) -> ExperimentResult``.

Run from the command line::

    python -m repro.bench fig8b
    python -m repro.bench all --scale 0.1
"""

EXPERIMENTS = (
    "fig7a",
    "fig7b",
    "fig8a",
    "fig8b",
    "fig9",
    "fig10",
    "table2",
    "summary",
)
