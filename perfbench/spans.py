"""Span recorder, kernel counter and per-layer summary.

Layers are measured from outside the program.  `Tracer.install` replaces
selected thetaval functions by timing wrappers in every thetaval module
that binds them (so `from .precision import sqrt` in qseries is wrapped
too), and `uninstall` puts the originals back.  Nothing in thetaval knows
about the recorder.

A span is (name, parent span, start, end).  A span's self time is its
duration minus the durations of its child spans; everything runs on one
thread, so children never overlap and no wait time exists to record.

`KernelCounter` counts Ball multiplications and divisions and their
operand bits in a pass of its own, so its cost stays out of span times.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

LAYERS = ("precision", "qseries", "modular", "exact", "lostnotebook", "cli")

# home module -> {function: metric group}.  "Class.method" patches a class.
# Private names are the cross-module helpers other layers import, and the
# q-product and hypergeometric kernels that carry most of their layer's time.
WRAPPED = {
    "precision": {
        "gamma_rational": "gamma",
        "const_pi": "pi",
        "_pi_ball": "pi",
        "exp": "elem",
        "log": "elem",
        "cos": "elem",
        "sin": "elem",
        "ipow": "roots",
        "sqrt": "roots",
        "nth_root": "roots",
        "pow_rational": "roots",
        "agm": "agm",
        "decimal_str": "format",
        "rad_exponent": "format",
        "rad_exponent_str": "format",
        "agreement_digits": "format",
        "_log10_floor": "format",
        "ball_arith": "other",
        "elementary": "other",
    },
    "qseries": {
        "phi": "phi",
        "psi": "psi",
        "f_neg": "f_neg",
        "chi": "chi",
        "theta_f": "theta_f",
        "pochhammer_inf": "pochhammer",
        "_pochhammer_raw": "pochhammer",
        "phi_series": "series",
        "psi_series": "series",
        "f_neg_series": "series",
        "as_q_ball": "nome",
        "q_power_ball": "nome",
        "_qpoint_ball": "nome",
        "QPoint.to_ball": "nome",
    },
    "modular": {
        "modulus_from_q": "modulus",
        "modulus_pair": "modulus",
        "singular_modulus_sq": "modulus",
        "nome": "modulus",
        "triple_from_x": "modulus",
        "transform": "modulus",
        "multiplier": "multiplier",
        "hyp2f1_half": "hyp",
        "hyp2f1_half_series": "hyp",
        "_hyp_raw": "hyp",
        "class_invariant": "classinv",
        "yi_h": "yi",
        "yi_product_theorem": "yi",
        "jims_identity": "jims",
        "verify_degree3": "residual",
        "verify_degree15": "residual",
        "degree_relation_residual": "residual",
        "ModularEquation.residual": "residual",
    },
    "exact": {
        "eval_expr": "eval_expr",
        "eval_theta": "eval_theta",
        "verify_identity": "verify",
        "build_catalog": "other",
        "render_expr": "other",
        "render_theta": "other",
        "mutate_first_leaf": "other",
        "ln7_cos_term": "other",
        "ln7_rhs_from_terms": "other",
    },
    "lostnotebook": {
        "compute_uvw": "uvw",
        "compute_p": "p",
        "solve_ratio4": "roots",
        "cubic_roots": "roots",
        "assign_roots": "roots",
        "complete_evaluation": "complete",
        "septic_pipeline": "complete",
        "build_septic_state": "other",
        "verify_quartic_relation": "other",
        "ratio4_series_oracle": "other",
        "misprint_variant": "other",
    },
    "cli": {
        "main": "self",
        "build_arg_parser": "self",
        "cmd_verify": "self",
        "cmd_eval": "self",
        "cmd_sweep": "self",
        "cmd_complete": "self",
        "cmd_catalog": "self",
    },
}

# qseries calls whose (function, nome, precision) key is tracked for repeats.
REPEAT_TRACKED = {"qseries.phi", "qseries.psi", "qseries.f_neg", "qseries.chi", "qseries.theta_f"}


def _modules():
    return {name: importlib.import_module(f"thetaval.{name}") for name in LAYERS}


def _arg_key(x):
    """Hashable identity of a nome or theta argument, by value."""
    if hasattr(x, "m") and hasattr(x, "f"):
        return ("ball", x.m, x.r, x.f)
    return x


class Tracer:
    """Records spans of wrapped thetaval calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.repeat_calls = 0
        self.repeat_self_s = 0.0
        self.escalations = 0
        self.origin = time.perf_counter()
        self._seen: set = set()
        self._stack: list = []
        self._undo: list = []

    # -- patching -------------------------------------------------------
    def install(self):
        mods = _modules()
        for home, table in WRAPPED.items():
            for attr in table:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mods[home], cls_name)
                    self._set(cls, meth, self._wrap(f"{home}.{attr}", getattr(cls, meth)))
                    continue
                orig = getattr(mods[home], attr)
                wrapper = self._wrap(f"{home}.{attr}", orig)
                for mod in mods.values():
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, name, wrapper)

    def uninstall(self):
        while self._undo:
            obj, name, orig = self._undo.pop()
            setattr(obj, name, orig)

    def _set(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, self_s, calls = self.spans, self._stack, self.self_s, self.calls
        clock = time.perf_counter
        track = name in REPEAT_TRACKED
        verify = name == "exact.verify_identity"
        tracer = self

        def wrapper(*args, **kwargs):
            repeat = False
            if track:
                key = (name, tuple(_arg_key(a) for a in args[:-1]), kwargs.get("ctx", args[-1]).bits)
                repeat = key in tracer._seen
                tracer._seen.add(key)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                spans[frame[0]] = (nid, parent, start, end)
                self_s[name] += own
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if repeat:
                    tracer.repeat_calls += 1
                    tracer.repeat_self_s += own
            if verify and result.prec_bits_used > kwargs.get("ctx", args[-1]).bits:
                tracer.escalations += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -----------------------------------------------------------
    def root_seconds(self) -> float:
        """Total duration of top-level spans: equals the sum of self times."""
        return sum(s[3] - s[2] for s in self.spans if s is not None and s[1] == -1)

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "start_s", "end_s"],
                    "spans": [
                        [self.names[n], p, round(s - self.origin, 9), round(e - self.origin, 9)]
                        for n, p, s, e in self.spans
                    ],
                },
                fh,
            )

    def layer_table(self) -> dict[str, float]:
        """Per-layer metrics: group and layer self times, and counts."""
        out: dict[str, float] = {}
        for home, table in WRAPPED.items():
            out[f"{home}.self_s"] = 0.0
            for group in set(table.values()) - {"self"}:
                out[f"{home}.{group}.self_s"] = 0.0
        for full, secs in self.self_s.items():
            home, attr = full.split(".", 1)
            group = WRAPPED[home][attr]
            out[f"{home}.self_s"] += secs
            if group != "self":
                out[f"{home}.{group}.self_s"] += secs
        out["precision.gamma.calls"] = self.calls["precision.gamma_rational"]
        out["exact.verify.calls"] = self.calls["exact.verify_identity"]
        out["exact.verify.escalations"] = self.escalations
        out["qseries.repeat.calls"] = self.repeat_calls
        out["qseries.repeat.self_s"] = self.repeat_self_s
        return out


class KernelCounter:
    """Counts Ball.__mul__/__rmul__ and Ball.__truediv__ calls and operand bits."""

    def __init__(self):
        self.mul_calls = self.mul_bits = self.div_calls = self.div_bits = 0
        self._undo: list = []

    def install(self):
        from thetaval.precision import Ball

        orig_mul, orig_div = Ball.__dict__["__mul__"], Ball.__dict__["__truediv__"]
        counter = self

        def bits(x) -> int:
            if isinstance(x, Ball):
                return abs(x.m).bit_length()
            return abs(x).bit_length() if isinstance(x, int) else 0

        def mul(a, b):
            counter.mul_calls += 1
            counter.mul_bits += abs(a.m).bit_length() + bits(b)
            return orig_mul(a, b)

        def div(a, b):
            counter.div_calls += 1
            counter.div_bits += abs(a.m).bit_length() + bits(b)
            return orig_div(a, b)

        for name, value in (("__mul__", mul), ("__rmul__", mul), ("__truediv__", div)):
            self._undo.append((Ball, name, Ball.__dict__[name]))
            setattr(Ball, name, value)

    def uninstall(self):
        while self._undo:
            cls, name, orig = self._undo.pop()
            setattr(cls, name, orig)

    def table(self) -> dict[str, int]:
        return {
            "precision.mul.calls": self.mul_calls,
            "precision.mul.bits": self.mul_bits,
            "precision.div.calls": self.div_calls,
            "precision.div.bits": self.div_bits,
        }
