"""The greedy escape at the default dwell (1e-3) and gains, stored as data.

`systems.recorded_escape()` computes it: greedy switching of the planar
system from x(0) = (1, 0) until |x| reaches the escape threshold: 30,532
policy samples on a 667-node trajectory. The default delay and the escape
schedule read only its switching signal (VALUES of the pieces, BREAKS
between them) and its escape time T_ESCAPE, so those are kept here and no
process has to repeat the run. Every float is its repr and reads back bit
for bit.

`tests/test_systems.py::TestStoredEscape` recomputes the run and compares
each literal; when an integrator change moves them, it prints the block to
paste below.
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
    0.7605934280489048,
    0.8277905359774562,
    0.8481161185679402,
    0.8541015811362431,
    0.8558521407507057,
    0.8563624434073335,
    0.8565112461995513,
    0.8565545856544948,
    0.8565672201040129,
    0.8565708996694726,
    0.8565719723244297,
    0.8565722847147186,
    0.8565723757815521,
    0.8565724023030166,
    0.8565724100344523,
    0.8565724122860842,
    0.856572412942471,
    0.8565724131336308,
    0.8565724131893481,
    0.8565724132056531,
    0.8565724132104546,
)
T_ESCAPE = 0.8565724132113361
