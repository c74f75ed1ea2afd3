import json

import numpy as np
import pytest

from delayreach.probes import DEFAULT_DELTAS, escape_schedule
from delayreach.signals import (
    Concatenation,
    Constant,
    DwellTooSmall,
    ExponentialTail,
    OutOfDomain,
    PiecewiseConstant,
    PiecewiseLinear,
    TimeShift,
    Window,
    _linear,
    from_json,
    smooth_square,
)


def is_float_list(v):
    return type(v) is list and all(type(x) is float for x in v)


class TestScalarPieces:
    """A one-component line or decay spells its one sum out; it must be, bit
    for bit, the first component of the general comprehension."""

    def test_one_component_line_is_the_general_formula(self):
        rng = np.random.default_rng(22)
        for _ in range(3_000):
            k0 = rng.uniform(-10.0, 10.0)
            k1 = k0 + 10.0 ** rng.uniform(-8.0, 2.0)
            v0, v1 = (rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0, size=2)).tolist()
            if rng.random() < 0.05:
                v0 = -0.0
            one = _linear(k0, k1, [v0], [v1])
            general = _linear(k0, k1, [v0, 1.0], [v1, 2.0])
            for t in [k0, k1] + rng.uniform(k0 - 1.0, k1 + 1.0, size=5).tolist():
                out = one(t)
                assert is_float_list(out) and len(out) == 1
                assert np.array(out).tobytes() == np.array(general(t)[:1]).tobytes(), (k0, k1, t)

    def test_one_component_decay_is_the_general_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(3_000):
            v = float(rng.normal() * 10.0 ** rng.uniform(-3.0, 3.0))
            rate, start = rng.uniform(-0.5, 3.0), rng.uniform(0.0, 3.0)
            lo = start + rng.uniform(0.0, 5.0)
            one = ExponentialTail([v], rate, start).piece(lo, lo + 10.0)
            general = ExponentialTail([v, 1.0], rate, start).piece(lo, lo + 10.0)
            for t in [lo, start] + (lo + rng.uniform(0.0, 10.0, size=5)).tolist():
                out = one(t)
                assert is_float_list(out) and len(out) == 1
                assert np.array(out).tobytes() == np.array(general(t)[:1]).tobytes(), (v, rate, t)


def dense_sup(sig, lo, hi, n=20001):
    return max(float(np.abs(sig.eval(t)).max()) for t in np.linspace(lo, hi, n))


class TestConstant:
    def test_eval(self):
        c = Constant([2.0, -3.0])
        assert np.array_equal(c.eval(5.0), [2.0, -3.0])
        with pytest.raises(OutOfDomain):
            c.eval(-0.1)


class TestPiecewiseConstant:
    def setup_method(self):
        self.s = PiecewiseConstant([1.0, -2.0, 0.5], [1.0, 3.0])

    def test_right_continuous(self):
        assert self.s.eval(0.0) == 1.0
        assert self.s.eval(1.0) == -2.0  # jump instant owned by the right piece
        assert self.s.piece(0.5, 1.0)(1.0) == 1.0  # the left piece's limit
        assert self.s.eval(3.0) == 0.5
        assert self.s.eval(100.0) == 0.5

    def test_breakpoints_strict_interior(self):
        assert list(self.s.breakpoints(0.0, 10.0)) == [1.0, 3.0]
        assert list(self.s.breakpoints(1.0, 3.0)) == []

    def test_min_dwell(self):
        assert self.s.min_dwell() == 2.0
        assert PiecewiseConstant([1.0], []).min_dwell() == np.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstant([1.0, 2.0], [3.0, 1.0, 5.0])
        with pytest.raises(ValueError):
            PiecewiseConstant([1.0, 2.0, 3.0], [2.0, 1.0])


class TestPiecewiseLinear:
    def setup_method(self):
        self.s = PiecewiseLinear([0.0, 1.0, 3.0], [0.0, 2.0, -2.0])

    def test_interpolation(self):
        assert self.s.eval(0.5) == pytest.approx(1.0)
        assert self.s.eval(2.0) == pytest.approx(0.0)
        assert self.s.eval(10.0) == -2.0  # constant extension

    def test_negative_knots_allowed_for_shifted_data(self):
        s = PiecewiseLinear([-2.0, 1.0], [1.0, 4.0])
        assert s.eval(0.0) == pytest.approx(3.0)
        with pytest.raises(OutOfDomain):
            s.eval(-1.0)


class TestExponentialTail:
    def test_eval_and_sup(self):
        s = ExponentialTail([2.0], rate=1.0, start=1.0)
        assert s.eval(1.0) == pytest.approx(2.0)
        assert s.eval(2.0) == pytest.approx(2.0 * np.exp(-1.0))
        assert s.eval(0.5) == pytest.approx(2.0)  # frozen before start

    def test_json_start_is_optional(self):
        s = from_json({"kind": "exponential_tail", "value": [2.0], "rate": 1.0})
        assert s.start == 0.0
        with pytest.raises((KeyError, TypeError)):  # only `start` has a default; the CLI exits 2
            from_json({"kind": "exponential_tail", "value": [2.0]})


class TestCombinators:
    def test_concatenation_owns_switch_on_right(self):
        s = Concatenation(Constant(1.0), Constant(2.0), 3.0)
        assert s.eval(2.999) == 1.0
        assert s.eval(3.0) == 2.0
        assert s.piece(2.0, 3.0)(3.0) == 1.0

    def test_time_shift(self):
        s = TimeShift(PiecewiseConstant([0.0, 1.0], [1.0]), 2.0)
        assert s.eval(2.5) == 0.0
        assert s.eval(3.5) == 1.0

    def test_time_shift_reads_inner_at_zero_before_the_shift(self):
        inner = PiecewiseLinear([0.0, 1.0, 2.0], [[3.0, 0.5], [-1.0, 2.0], [0.25, 0.0]])
        for shift in (0.0, 0.25, 1.7):
            s = TimeShift(inner, shift)
            for t in np.linspace(0.0, 4.0, 81).tolist() + [shift, np.nextafter(shift, np.inf)]:
                assert s.eval(t).tobytes() == inner.eval(max(t - shift, 0.0)).tobytes(), (shift, t)
        # the hold meets the broken line at the shift, so it is a breakpoint
        assert list(TimeShift(inner, 1.7).breakpoints(0.0, 4.0)) == [1.7, 2.7, 3.7]
        assert list(TimeShift(inner, 1.7).breakpoints(1.7, 3.0)) == [2.7]
        # a knot or start before 0 is gone: the hold covers it
        early = PiecewiseLinear([-1.0, 1.0], [0.0, 2.0])
        assert TimeShift(early, 2.0).eval(1.0)[0] == early.eval(0.0)[0] == 1.0
        assert list(TimeShift(early, 2.0).breakpoints(0.0, 4.0)) == [2.0, 3.0]
        tail = ExponentialTail([2.0], 1.0, -1.0)
        assert TimeShift(tail, 2.0).eval(1.0)[0] == tail.eval(0.0)[0]
        assert list(TimeShift(tail, 2.0).breakpoints(0.0, 4.0)) == [2.0]

    def test_time_shift_of_a_window_is_zero_before_the_shift(self):
        # a window answers zero outside its interval at any time, also before 0
        s = TimeShift(Window(Constant(1.0), 0.0, 1.0), 2.0)
        assert [s.eval(t)[0] for t in (0.0, 1.0, 1.999, 2.0, 2.999, 3.0, 4.0)] == [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
        assert list(s.breakpoints(0.0, 4.0)) == [2.0, 3.0]
        assert s.piece(0.0, 2.0)(0.0)[0] == 0.0

    def test_time_shift_breakpoints_stay_inside_the_window(self):
        # the shifted break b + shift rounds onto lo, but t - shift reaches b
        # one ulp later: eval switches there, strictly inside the window
        s = TimeShift(PiecewiseConstant([0.0, 1.0], [0.8334021675715163]), 1.910885061964363)
        lo = 2.744287229535879
        assert 0.8334021675715163 + 1.910885061964363 == lo
        assert list(s.breakpoints(lo, 3.744287229535879)) == [np.nextafter(lo, np.inf)]
        assert s.eval(lo)[0] == 0.0 and s.eval(np.nextafter(lo, np.inf))[0] == 1.0
        rng = np.random.default_rng(7)
        for _ in range(2000):
            shift = rng.uniform(0.0, 2.0)
            lo = shift + rng.uniform(0.0, 3.0)
            hi = lo + rng.uniform(0.05, 2.0)
            # one ulp inside each end of the inner window
            inner = [np.nextafter(lo - shift, np.inf), np.nextafter(hi - shift, -np.inf)]
            bp = TimeShift(PiecewiseConstant([0.0, 1.0, 2.0], inner), shift).breakpoints(lo, hi)
            assert ((bp > lo) & (bp < hi)).all()

    def test_time_shift_breaks_where_eval_switches(self):
        # b + shift is off by an ulp either way for many pairs; the reported
        # break is the first t whose t - shift reaches b
        rng = np.random.default_rng(3)
        for b, shift in rng.uniform(0.0, 4.0, size=(2000, 2)):
            s = TimeShift(PiecewiseConstant([0.0, 1.0], [b]), shift)
            (t,) = s.breakpoints(0.5 * shift, b + shift + 1.0)
            assert s.eval(np.nextafter(t, -np.inf))[0] == 0.0 and s.eval(t)[0] == 1.0

    def test_window_zero_outside(self):
        s = Window(Constant(5.0), 1.0, 2.0)
        assert s.eval(0.5) == 0.0
        assert s.eval(1.0) == 5.0
        assert s.eval(2.0) == 0.0  # half-open on the right
        assert s.piece(1.0, 2.0)(2.0) == 5.0


class TestSmoothSquare:
    def setup_method(self):
        self.sched = PiecewiseConstant([0.0, 1.0, 0.0, 1.0], [1.0, 2.0, 4.0])

    def moving_average_oracle(self, t, delta, n=4001):
        grid = np.linspace(t - delta / 2, t + delta / 2, n)
        vals = [self.sched.eval(max(g, -10.0))[0] if g >= 0 else self.sched.values[0, 0] for g in grid]
        return np.trapezoid(vals, grid) / delta

    def test_matches_moving_average(self):
        # the quadrature oracle carries O(grid) error at schedule jumps
        w = smooth_square(self.sched, 0.2)
        for t in [0.5, 0.95, 1.0, 1.05, 1.5, 2.0, 3.97, 4.1, 6.0]:
            assert w.eval(t)[0] == pytest.approx(self.moving_average_oracle(t, 0.2), abs=5e-4)

    def test_equals_schedule_away_from_jumps(self):
        w = smooth_square(self.sched, 0.2)
        assert w.eval(0.5)[0] == pytest.approx(0.0, abs=1e-12)
        assert w.eval(1.5)[0] == pytest.approx(1.0, abs=1e-12)
        assert w.eval(3.0)[0] == pytest.approx(0.0, abs=1e-12)
        assert w.eval(6.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_never_exceeds_sup(self):
        w = smooth_square(self.sched, 0.3)
        assert dense_sup(w, 0.0, 6.0) <= 1.0 + 1e-12

    @pytest.mark.parametrize("delta", DEFAULT_DELTAS)
    def test_recorded_schedule_stays_within_sup(self, delta):
        # no tolerance: the moving average is clipped to the schedule's range
        sched, _ = escape_schedule()
        w = smooth_square(sched, delta, strict=False)
        assert float(np.abs(w.values).max()) <= float(np.abs(sched.values).max())

    def test_l1_error_halves_with_delta(self):
        # each isolated jump of size J contributes J*delta/4 of L1 error
        grid = np.linspace(0.0, 6.0, 60001)
        sched_vals = np.array([self.sched.eval(t)[0] for t in grid])

        def l1(delta):
            w = smooth_square(self.sched, delta)
            w_vals = np.array([w.eval(t)[0] for t in grid])
            return np.trapezoid(np.abs(w_vals - sched_vals), grid)

        d = 0.2
        expected = 3 * 1.0 * d / 4  # three unit jumps
        assert l1(d) == pytest.approx(expected, rel=1e-2)
        assert l1(d / 2) == pytest.approx(expected / 2, rel=1e-2)

    def test_strict_mode_rejects_wide_delta(self):
        with pytest.raises(DwellTooSmall):
            smooth_square(self.sched, 0.6)  # min dwell is 1.0, need delta < 0.5
        smooth_square(self.sched, 0.6, strict=False)  # exact average still fine

    def test_overlapping_ramps_still_average(self):
        tight = PiecewiseConstant([0.0, 1.0, 0.0], [1.0, 1.05])
        w = smooth_square(tight, 0.2, strict=False)
        grid = np.linspace(0.8, 1.3, 2001)
        ref = PiecewiseConstant([0.0, 1.0, 0.0], [1.0, 1.05])
        for t in grid[::100]:
            g = np.linspace(t - 0.1, t + 0.1, 2001)
            vals = [ref.values[0, 0] if s < 0 else ref.eval(s)[0] for s in g]
            assert w.eval(t)[0] == pytest.approx(np.trapezoid(vals, g) / 0.2, abs=5e-4)


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "sig",
        [
            Constant([1.5, -2.0]),
            PiecewiseConstant([1.0, 0.0, 2.0], [0.5, 1.5]),
            PiecewiseLinear([0.0, 1.0, 2.0], [0.0, 1.0, -1.0]),
            ExponentialTail([3.0], 0.5, 1.0),
            Concatenation(Constant(1.0), Constant(2.0), 1.0),
            TimeShift(PiecewiseConstant([0.0, 1.0], [1.0]), 0.5),
            Window(Constant(4.0), 0.5, 1.5),
        ],
    )
    def test_round_trip(self, sig):
        clone = from_json(sig.to_json())
        for t in np.linspace(0.0, 3.0, 37):
            assert np.allclose(clone.eval(t), sig.eval(t))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_json({"kind": "nope"})


LEAVES = (Constant, PiecewiseConstant, PiecewiseLinear, ExponentialTail)
SIGNAL_CLASSES = LEAVES + (Concatenation, TimeShift, Window)


def random_signal(rng, cls, dim):
    """A random instance of `cls`; every one is defined for all t >= 0, and a
    leaf's breaks, knots or start may lie before 0, which a time shift reads."""
    n = int(rng.integers(2, 7))
    vals = rng.uniform(-2.0, 2.0, size=(n, dim))
    if cls is Constant:
        return Constant(vals[0])
    if cls is PiecewiseConstant:
        return PiecewiseConstant(vals, np.sort(rng.uniform(-1.0, 5.0, size=n - 1)))
    if cls is PiecewiseLinear:
        return PiecewiseLinear(np.sort(rng.uniform(-1.0, 5.0, size=n)), vals)
    if cls is ExponentialTail:
        return ExponentialTail(vals[0], rng.uniform(-0.5, 2.0), rng.uniform(-1.0, 3.0))
    inner = random_signal(rng, LEAVES[rng.integers(len(LEAVES))], dim)
    if cls is Concatenation:
        second = random_signal(rng, LEAVES[rng.integers(len(LEAVES))], dim)
        return Concatenation(inner, second, rng.uniform(0.2, 4.0))
    if cls is TimeShift:
        # nest a combinator too: before the shift it answers as it would before 0
        inner_cls = SIGNAL_CLASSES[rng.integers(len(SIGNAL_CLASSES))]
        inner = random_signal(rng, inner_cls if inner_cls is not TimeShift else Window, dim)
        return TimeShift(inner, rng.uniform(0.0, 2.0))
    lo = rng.uniform(0.0, 3.0)
    return Window(inner, lo, lo + rng.uniform(0.1, 3.0))


def defining_instants(sig) -> np.ndarray:
    """Every instant where a piece, switch or window of `sig` begins or ends."""
    if isinstance(sig, PiecewiseConstant):
        return sig.breaks
    if isinstance(sig, PiecewiseLinear):
        return sig.knots
    if isinstance(sig, ExponentialTail):
        return np.array([sig.start])
    if isinstance(sig, Concatenation):
        return np.concatenate([defining_instants(sig.first), defining_instants(sig.second), [sig.t_switch]])
    if isinstance(sig, TimeShift):
        # the shift is where a leaf's hold before 0 ends
        return np.concatenate([defining_instants(sig.inner), [0.0]]) + sig.shift
    if isinstance(sig, Window):
        return np.concatenate([defining_instants(sig.inner), [sig.lo, sig.hi]])
    return np.empty(0)


class TestSignalProperties:
    """Seeded random instances of every signal class, on random windows."""

    DRAWS = 12
    SAMPLES = 1001

    def draws(self, cls):
        for i in range(self.DRAWS):
            rng = np.random.default_rng((SIGNAL_CLASSES.index(cls), i))
            sig = random_signal(rng, cls, int(rng.integers(1, 4)))
            lo = rng.uniform(0.0, 3.0)
            yield rng, sig, lo, lo + rng.uniform(0.05, 4.0)

    @pytest.mark.parametrize("cls", SIGNAL_CLASSES, ids=lambda c: c.__name__)
    def test_breakpoints_strictly_interior_and_sorted(self, cls):
        for _, sig, lo, hi in self.draws(cls):
            bp = sig.breakpoints(lo, hi)
            assert ((bp > lo) & (bp < hi)).all()
            assert (np.diff(bp) > 0.0).all()

    @pytest.mark.parametrize("cls", SIGNAL_CLASSES, ids=lambda c: c.__name__)
    def test_json_round_trip_is_exact(self, cls):
        for _, sig, lo, hi in self.draws(cls):
            clone = from_json(json.loads(json.dumps(sig.to_json())))
            assert type(clone) is cls
            assert clone.to_json() == sig.to_json()
            for t in np.linspace(lo, hi, 41):
                assert np.array_equal(clone.eval(t), sig.eval(t))

    @pytest.mark.parametrize("cls", SIGNAL_CLASSES, ids=lambda c: c.__name__)
    def test_piece_matches_eval(self, cls):
        # the window split at its breakpoints: each piece is eval bit for bit
        # at its start and inside, and the limit from the left at its end
        for rng, sig, lo, hi in self.draws(cls):
            cuts = np.concatenate([[lo], sig.breakpoints(lo, hi), [hi]])
            for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
                p = sig.piece(a, b)
                # the instants where the definition changes, read off the parameters
                inside = [t for t in defining_instants(sig).tolist() if a < t < b]
                for t in [a, np.nextafter(b, -np.inf)] + rng.uniform(a, b, size=20).tolist() + inside:
                    assert np.array(p(t)).tobytes() == sig.eval(t).tobytes(), (a, b, t)
                assert np.allclose(p(b), sig.eval(np.nextafter(b, -np.inf)), rtol=0.0, atol=1e-9)
            # the window's own end is no breakpoint: the last piece is eval there
            assert np.array(p(hi)).tobytes() == sig.eval(hi).tobytes()

    def test_piece_refuses_negative_times(self):
        with pytest.raises(OutOfDomain):
            TimeShift(Constant(1.0), 0.5).piece(-0.25, 0.5)
