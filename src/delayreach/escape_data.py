"""The greedy escape at the default dwell (1e-3) and gains, stored as data.

`systems.recorded_escape()` computes it: greedy switching of the planar
system from x(0) = (1, 0) until |x| reaches the escape threshold, a
30,549-node trajectory. The default delay and the escape schedule read only
its switching signal (VALUES of the pieces, BREAKS between them) and its
escape time T_ESCAPE, so those are kept here and no process has to repeat
the run. Every float is its repr and reads back bit for bit.

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
    0.03351837041281974,
    0.5548924214534975,
    0.7605934311494137,
    0.8277905402195082,
    0.8481161232984746,
    0.8541015860434241,
    0.8558521457182705,
    0.8563624483949913,
    0.8565112511937942,
    0.8565545906508679,
    0.8565672251010686,
    0.8565709046667462,
    0.8565719773217733,
    0.8565722897120839,
    0.8565723807789243,
    0.8565724073003904,
    0.8565724150318266,
    0.8565724172834587,
    0.8565724179398455,
    0.8565724181310053,
    0.8565724181867226,
    0.8565724182030277,
    0.8565724182078291,
)
T_ESCAPE = 0.8565724182087104
