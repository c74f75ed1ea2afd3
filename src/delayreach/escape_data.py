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
    0.7605934280489046,
    0.8277905359774561,
    0.8481161185679401,
    0.8541015811362431,
    0.8558521407507058,
    0.8563624434073334,
    0.8565112461995512,
    0.8565545856544947,
    0.856567220104013,
    0.856570899669473,
    0.85657197232443,
    0.8565722847147189,
    0.8565723757815525,
    0.856572402303017,
    0.8565724100344527,
    0.8565724122860846,
    0.8565724129424714,
    0.8565724131336312,
    0.8565724131893485,
    0.8565724132056536,
    0.8565724132104551,
)
T_ESCAPE = 0.8565724132113366
