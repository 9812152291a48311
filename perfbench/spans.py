"""Spans around the calls into each fluxcontrol module, recorded from outside it.

``Tracer.install`` replaces, in this process only, every public function that
one fluxcontrol module imports from another, scipy's ``expm`` as ``linsys``,
``gramian`` and ``trajectory`` import it, the ``GramianEvaluator`` methods,
the two result writers, and the controller closure that
``min_energy_controller`` returns. ``uninstall`` puts the originals back.
Spans stay in memory as ``[name, start, end, parent, job, failed, size]``.
"""

import functools
import importlib
import inspect
import json
import time

from scipy.linalg import expm as scipy_expm

MODULES = ("cli", "graphio", "linsys", "gramian", "select", "placement", "centrality", "trajectory")
# The kernel boundary: counted, but its time stays in the caller's self time.
KERNEL = "expm"

# Per-layer self times (seconds per job) and the spans each one sums.
SELF_TIME = {
    "cli.self_s": ["cli.main"],
    "graphio.read_s": ["graphio.parse_edge_list", "graphio.load_dense_matrix"],
    "graphio.write_s": ["graphio.write_matrix_csv"],
    "linsys.transition_s": ["linsys.transition_matrix"],
    "gramian.eval_s": ["gramian.GramianEvaluator.__init__", "gramian.GramianEvaluator.matrix",
                       "gramian.GramianEvaluator.bundle"],
    "gramian.flux_s": ["gramian.flux_matrix"],
    "gramian.reach_s": ["gramian.reachability_gramian"],
    "select.s": ["select.select_state", "select.binding_check", "select.mean_goal"],
    "placement.gpgm_s": ["placement.gpgm_multistart"],
    "centrality.sweep_s": ["centrality.flux_sweep"],
    "centrality.write_s": ["centrality.FluxProfile.write_csv"],
    "trajectory.controller_s": ["trajectory.min_energy_controller"],
    "trajectory.u_s": ["trajectory.u"],
    "trajectory.rk4_s": ["trajectory.simulate"],
    "trajectory.write_s": ["trajectory.Trajectory.write_csv"],
}
# Per-layer call counts (per job) and the span each one counts.
CALLS = {
    "select.calls": "select.select_state",
    "gramian.eval_calls": "gramian.GramianEvaluator.matrix",
    "gramian.flux_calls": "gramian.flux_matrix",
    "gramian.reach_calls": "gramian.reachability_gramian",
    "linsys.transition_calls": "linsys.transition_matrix",
    "expm.calls": KERNEL,
    "trajectory.u_calls": "trajectory.u",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = self._collect()

    def _wrap(self, name, fn, size=None, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job, False,
                   size(args) if size else 0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            return hook(out) if hook else out

        return wrapper

    def _collect(self):
        mods = {m: importlib.import_module(f"fluxcontrol.{m}") for m in MODULES}
        patches = []
        for mod in mods.values():
            for attr, obj in vars(mod).items():
                if obj is scipy_expm:
                    patches.append((mod, attr, self._wrap(KERNEL, obj, size=lambda a: a[0].shape[0] ** 3)))
                    continue
                origin = getattr(obj, "__module__", "").removeprefix("fluxcontrol.")
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if origin in MODULES and obj.__module__ != mod.__name__:
                    hook = self._wrap_controller if attr == "min_energy_controller" else None
                    patches.append((mod, attr, self._wrap(f"{origin}.{attr}", obj, hook=hook)))
        methods = (
            (mods["gramian"].GramianEvaluator, ("__init__", "matrix", "bundle")),
            (mods["trajectory"].Trajectory, ("write_csv",)),
            (mods["centrality"].FluxProfile, ("write_csv",)),
        )
        for cls, attrs in methods:
            origin = cls.__module__.removeprefix("fluxcontrol.")
            for attr in attrs:
                patches.append((cls, attr, self._wrap(f"{origin}.{cls.__name__}.{attr}", vars(cls)[attr])))
        return [(owner, attr, vars(owner)[attr], new) for owner, attr, new in patches]

    def _wrap_controller(self, control):
        return self._wrap("trajectory.u", control)

    def call(self, job, fn, *args):
        """Run ``fn(*args)`` as job ``job`` under a root span named cli.main."""
        self.job = job
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        try:
            return self._wrap("cli.main", fn)(*args)
        finally:
            for owner, attr, old, _ in self._patches:
                setattr(owner, attr, old)
            self.job = None

    def per_job(self):
        """{job: {span name: [calls, self seconds, failed calls, size sum]}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0 and name != KERNEL:
                child[parent] += end - start
        jobs = {}
        for (name, start, end, _, job, failed, size), sub in zip(self.spans, child):
            acc = jobs.setdefault(job, {}).setdefault(name, [0, 0.0, 0, 0])
            acc[0] += 1
            acc[1] += end - start - sub
            acc[2] += failed
            acc[3] += size
        return jobs

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
