"""Spans and counts recorded around calls into each layer of `delayreach`.

`Tracer.install` replaces the public functions and methods listed in
`install` with wrappers (in every `delayreach` module that holds them), and
`uninstall` puts the originals back. While `active`, each wrapped call
records a span: name, start, end, parent span and the operation it belongs
to. Spans are kept in flat typed arrays and written out by `save`. A span's
self time is its duration minus the durations of its direct children; the
calls are nested and single-threaded, so children never overlap.
"""

import dataclasses
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

SETUP = -2

#: name groups whose nested calls count once, at the outermost call
RHS_GROUP = ("systems.rhs", "systems.planar_rhs")


def _signal_names(dr):
    for cls in [dr.signals.Signal, *dr.signals.Signal.__subclasses__()]:
        for meth in ("eval", "eval_left"):
            if meth in vars(cls):
                yield cls, meth, f"signals.{cls.__name__}.{meth}"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.t0 = array("d")
        self.t1 = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        #: (op id, key) -> accumulated value, for counts read off results
        self.tally = defaultdict(float)
        #: integrate span index -> the horizon T it was asked for
        self.horizon = {}
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def begin(self, op_id):
        """Record spans of operation `op_id` (SETUP for the set-up) until `end`."""
        self.op_id = op_id
        self.active = True

    def end(self):
        self.active = False
        self.op_id = -1

    def span(self, name, fn, before=None, after=None):
        nid = self._id(name)
        t0, t1, names, parent, op, stack = self.t0, self.t1, self.name, self.parent, self.op, self.stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(t0)
            t0.append(0.0)
            t1.append(0.0)
            names.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            token = before(args) if before is not None else None
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = perf_counter()
                t0[idx] = start
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, key, value):
        self.tally[(self.op_id, key)] += value

    def _trajectory(self, traj):
        self._add("accepted", len(traj.ts) - 1)
        self._add("bytes", sum(v.nbytes for v in vars(traj).values() if isinstance(v, np.ndarray)))

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr, make):
        """Replace module.attr, and every re-export of it, with make(original)."""
        orig = getattr(module, attr)
        wrapper = make(orig)
        for modname, mod in list(sys.modules.items()):
            if (modname == "delayreach" or modname.startswith("delayreach.")) and getattr(
                mod, attr, None
            ) is orig:
                self._patch(mod, attr, wrapper)

    def install(self, dr):
        integ, systems, signals, lyap, probes = (
            dr.integrator, dr.systems, dr.signals, dr.lyap, dr.probes,
        )
        fn = self._patch_function

        def after_integrate(idx, args, kwargs, out, token):
            self.horizon[idx] = float(args[3] if len(args) > 3 else kwargs["T"])
            self._trajectory(out.trajectory)

        fn(integ, "integrate", lambda f: self.span("integrator.integrate", f, after=after_integrate))

        def before_advance(args):
            return args[0].nsteps

        def after_advance(idx, args, kwargs, result, token):
            self._add("attempts", args[0].nsteps - token)

        self._patch(integ.Stepper, "advance", self.span(
            "integrator.Stepper.advance", integ.Stepper.advance, before_advance, after_advance
        ))
        for cls, meth in ((integ.Trajectory, "eval"), (integ.Trajectory, "sup_norm"),
                          (integ.Trajectory, "last_time_above"), (integ.HistoryFn, "eval")):
            self._patch(cls, meth, self.span(f"integrator.{cls.__name__}.{meth}", getattr(cls, meth)))

        def wrap_factory(f):
            def factory(*args, **kwargs):
                return self.span("systems.planar_rhs", f(*args, **kwargs))
            return factory

        def wrap_system(f):
            def factory(*args, **kwargs):
                sys_ = f(*args, **kwargs)
                return dataclasses.replace(sys_, rhs=self.span("systems.rhs", sys_.rhs))
            return factory

        fn(systems, "planar_rhs", wrap_factory)
        for attr in ("planar_system", "cascade_system", "associated_system"):
            fn(systems, attr, wrap_system)

        def wrap_policy(f):
            def factory(*args, **kwargs):
                pol = f(*args, **kwargs)
                return dataclasses.replace(pol, rule=self.span("systems.policy_rule", pol.rule))
            return factory

        fn(systems, "greedy_worst_switch", wrap_policy)

        def after_switched(idx, args, kwargs, run, token):
            self._trajectory(run.outcome.trajectory)

        fn(systems, "run_switched", lambda f: self.span("systems.run_switched", f, after=after_switched))
        for attr in ("embed_history_as_inputs", "saturation_stop_times"):
            fn(systems, attr, lambda f, a=attr: self.span(f"systems.{a}", f))

        for cls, meth, name in _signal_names(dr):
            self._patch(cls, meth, self.span(name, vars(cls)[meth]))
        fn(signals, "smooth_square", lambda f: self.span("signals.smooth_square", f))

        for attr in ("default_certificate", "solve_lyapunov", "find_capital_lambda"):
            fn(lyap, attr, lambda f, a=attr: self.span(f"lyap.{a}", f))
        for attr in ("uga_table", "escape_schedule"):
            fn(probes, attr, lambda f, a=attr: self.span(f"probes.{a}", f))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def arrays(self):
        # copies, so the recording arrays stay free to grow
        return {
            "t0": np.array(self.t0, dtype=float),
            "t1": np.array(self.t1, dtype=float),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self, n_ops):
        """Per-layer metrics; counts and *_s are per operation, *_us per call."""
        a = self.arrays()
        name, parent, op = a["name"], a["parent"], a["op"]
        dur = a["t1"] - a["t0"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        pname = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        in_ops = op >= 0
        in_setup = op == SETUP

        def ids(names):
            return [self._ids[n] for n in names if n in self._ids]

        def sel(names, where=in_ops, outermost=False):
            m = where & np.isin(name, ids(names))
            if outermost:
                m &= ~np.isin(pname, ids(names))
            return m

        def tally(key):
            return sum(v for (o, k), v in self.tally.items() if k == key and o >= 0)

        def per_op(x):
            return x / n_ops if n_ops else 0.0

        def mean_us(m):
            return float(dur[m].mean()) * 1e6 if m.any() else 0.0

        def ratio(x, y):
            return x / y if y else 0.0

        advance = sel(["integrator.Stepper.advance"])
        accepted = tally("accepted")
        rhs_all = sel(["systems.planar_rhs"])
        integ = sel(["integrator.integrate"])
        signal_names = [n for n in self.names if n.startswith("signals.") and n.endswith(("eval", "eval_left"))]
        sig = sel(signal_names, outermost=True)
        uga = sel(["probes.uga_table"])
        integ_idx = np.nonzero(integ)[0]
        # integrate calls made by uga_table: their parent chain reaches a uga span
        owner = {}
        for i in integ_idx:
            p = parent[i]
            while p >= 0 and not uga[p]:
                p = parent[p]
            if p >= 0:
                owner.setdefault(int(p), []).append(int(i))
        total_span = sum(self.horizon[i] for calls in owner.values() for i in calls)
        final_span = sum(self.horizon[calls[-1]] for calls in owner.values())

        m = {
            "integrator.accepted_steps": (per_op(accepted), "count"),
            "integrator.rejected_steps": (per_op(tally("attempts") - accepted), "count"),
            "integrator.us_per_step": (ratio(float(dur[advance].sum()), accepted) * 1e6, "us"),
            "integrator.rhs_evals_per_step": (ratio(float(rhs_all.sum()), accepted), "ratio"),
            "integrator.advance_calls": (per_op(float(advance.sum())), "count"),
            "integrator.steps_per_advance": (ratio(accepted, float(advance.sum())), "ratio"),
            "integrator.integrate_calls": (per_op(float(integ.sum())), "count"),
            "integrator.integrate_self_s": (per_op(float(self_t[integ].sum())), "s"),
        }
        for key, span_name in (("history_eval", "integrator.HistoryFn.eval"),
                               ("traj_eval", "integrator.Trajectory.eval"),
                               ("sup_norm", "integrator.Trajectory.sup_norm")):
            s = sel([span_name])
            m[f"integrator.{key}_calls"] = (per_op(float(s.sum())), "count")
            m[f"integrator.{key}_us"] = (mean_us(s), "us")
        m["integrator.last_time_above_s"] = (
            per_op(float(dur[sel(["integrator.Trajectory.last_time_above"])].sum())), "s")
        m["integrator.trajectory_bytes"] = (per_op(tally("bytes")), "bytes")
        m["systems.rhs_evals"] = (per_op(float(rhs_all.sum())), "count")
        m["systems.rhs_us"] = (mean_us(sel(list(RHS_GROUP), outermost=True)), "us")
        m["systems.policy_samples"] = (per_op(float(sel(["systems.policy_rule"]).sum())), "count")
        m["systems.run_switched_s"] = (per_op(float(dur[sel(["systems.run_switched"])].sum())), "s")
        m["systems.embed_us"] = (mean_us(sel(["systems.embed_history_as_inputs"])), "us")
        m["signals.eval_calls"] = (per_op(float(sig.sum())), "count")
        m["signals.eval_us"] = (mean_us(sig), "us")
        m["signals.smooth_square_us"] = (mean_us(sel(["signals.smooth_square"])), "us")
        m["lyap.certificate_s"] = (float(dur[sel(["lyap.default_certificate"], in_setup)].sum()), "s")
        m["lyap.solve_lyapunov_us"] = (mean_us(sel(["lyap.solve_lyapunov"], in_setup)), "us")
        m["probes.escape_schedule_s"] = (float(dur[sel(["probes.escape_schedule"], in_setup)].sum()), "s")
        m["probes.self_s"] = (per_op(float(self_t[uga].sum())), "s")
        m["probes.integrations_per_draw"] = (ratio(sum(len(c) for c in owner.values()), int(uga.sum())), "ratio")
        m["probes.span_redone_ratio"] = (ratio(total_span, final_span), "ratio")
        m["setup.advance_calls"] = (float(sel(["integrator.Stepper.advance"], in_setup).sum()), "count")
        m["setup.policy_samples"] = (float(sel(["systems.policy_rule"], in_setup).sum()), "count")
        m["setup.run_switched_s"] = (float(dur[sel(["systems.run_switched"], in_setup)].sum()), "s")
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
