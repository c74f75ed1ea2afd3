"""The greedy escape at dwell DWELL and the default gains, stored as data.

`systems.recorded_escape()` computes it: greedy switching of the planar
system from x(0) = (1, 0) until |x| reaches the escape threshold: 30,532
policy samples on a 667-node trajectory. DWELL is the default dwell of
`recorded_escape` and of `escape --dwell`. The default delay and the escape
schedule read only its switching signal (VALUES of the pieces, BREAKS
between them) and its escape time T_ESCAPE, so those are kept here and no
process has to repeat the run. Every float is its repr and reads back bit
for bit.

`tests/test_systems.py::TestStoredEscape` recomputes the run and compares
each literal; when an integrator change moves them, it prints the block to
paste below. It also pins T_ESCAPE, and the run's states at BREAKS,
against an exact replay of this schedule (`tests/replay.py`).
"""

DWELL = 1e-3

# -- generated from recorded_escape(DWELL) --
VALUES = (
    1.0,
    0.0,
    1.0,
    0.0,
    1.0,
    0.0,
    1.0,
    0.0,
    1.0,
    0.0,
    1.0,
    0.0,
    1.0,
    0.0,
    1.0,
    0.0,
    1.0,
    0.0,
    1.0,
    0.0,
    1.0,
    0.0,
    1.0,
    0.0,
)
BREAKS = (
    0.0335183704137846,
    0.5548924201761196,
    0.7605934280489045,
    0.827790535977456,
    0.8481161185679401,
    0.8541015811362431,
    0.8558521407507057,
    0.8563624434073335,
    0.8565112461995513,
    0.8565545856544949,
    0.8565672201040132,
    0.8565708996694731,
    0.8565719723244302,
    0.856572284714719,
    0.8565723757815527,
    0.8565724023030171,
    0.8565724100344528,
    0.8565724122860847,
    0.8565724129424716,
    0.8565724131336313,
    0.8565724131893486,
    0.8565724132056537,
    0.8565724132104552,
)
T_ESCAPE = 0.8565724132113367
