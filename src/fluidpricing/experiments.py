"""Preset experiments and CSV emission.

The benchmark table pits the fluid value, the stationary fluid price, and
the re-solving heuristic against the exact optimal value on the standard
bernoulli instance (alpha = 3/4, beta = 1/2, prices in [0, 1], normalized
initial inventory 5/16).  Sweeps vary the inventory-to-optimum gap and the
curvature of the demand curve; the hindsight comparison bounds the gap of
the clairvoyant benchmark on additive-noise models.  All outputs are plain
CSV, full precision, deterministic for a fixed base seed.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

from .demand import DemandModel, model_from_dict, benchmark_model
from .errors import ConfigError, DomainError, UnsupportedModelError
from .policies import exact_passes, resolving_policy
from .sim import ci_half_width, estimate_regret, fluid_value_at_rate, ho_values, regret_points

GAP_SWEEP_X_T = (0.3, 0.325, 0.35, 0.375)
CONCAVITY_SWEEP_SLOPES = (0.3, 0.5, 0.7, 0.9)
CONCAVITY_SWEEP_X_T = 0.1


@dataclass
class ExperimentConfig:
    """A named regret-estimation run over a grid of horizons.

    y0_rule gives the initial inventory at each T: one rule such as
    "round(5/16*T)" for one product, a list of one rule per product for a
    multi-product model.  Past what JSON can get wrong (distinct names, whole
    numbers, ascending horizons), sim.regret_points admits the run as
    estimate_regret will; each failure is a ConfigError.
    """

    name: str
    model: dict
    T_list: list[int]
    y0_rule: str | list[str] = "round(5/16*T)"
    policies: list[str] = field(default_factory=lambda: ["static", "resolving"])
    replications: int = 10_000
    base_seed: int = 0

    def __post_init__(self):
        self.T_list = _horizons(self.T_list)
        self.replications, self.base_seed = _whole(self.replications), _whole(self.base_seed)
        if (not isinstance(self.policies, (list, tuple))
                or len(set(self.policies)) != len(self.policies)):
            raise ConfigError(f"policies must be a list of distinct names, got {self.policies!r}")
        try:
            regret_points(model_from_dict(self.model), self.T_list, self.y0_rule, self.policies,
                          self.replications)
        except (DomainError, UnsupportedModelError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return {**asdict(self), "policies": list(self.policies)}

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        """The config of obj's fields; ConfigError for a missing or unknown key,
        so that a misspelt one is not run at its default."""
        try:
            unknown = set(obj) - {f.name for f in fields(cls)}
            if unknown:
                raise ConfigError(f"unknown keys {sorted(unknown)}")
            return cls(**obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc


def _whole(value) -> int:
    """value as an int; ConfigError unless a whole number (64 or 64.0, not 64.7 or True)."""
    if isinstance(value, bool) or not (isinstance(value, (int, float)) and value % 1 == 0):
        raise ConfigError(f"need a whole number, got {value!r}")
    return int(value)


def _horizons(T_list) -> list[int]:
    """T_list as ints; ConfigError unless a nonempty ascending list of whole numbers >= 1."""
    if not isinstance(T_list, (list, tuple)):
        raise ConfigError(f"T_list must be a list of horizons, got {T_list!r}")
    T_list = [_whole(T) for T in T_list]
    if not T_list or T_list != sorted(T_list) or T_list[0] < 1:
        raise ConfigError(f"horizons must be >= 1, at least one and ascending, got {T_list}")
    return T_list


@dataclass
class SweepConfig:
    """Regret-vs-horizon sweep; kind selects which model knob varies."""

    kind: str
    T_list: list[int]

    def __post_init__(self):
        if self.kind not in ("gap", "concavity"):
            raise ConfigError(f"sweep kind must be 'gap' or 'concavity', got {self.kind!r}")
        self.T_list = _horizons(self.T_list)


# -- CSV helpers -------------------------------------------------------------


def write_csv(rows: list[dict], columns: list[str]) -> str:
    """Serialize rows to CSV with a fixed column order; returns the text.

    csv writes None as an empty field and a float by its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row[c] for c in columns] for row in rows)
    return buf.getvalue()


# -- benchmark table ----------------------------------------------------------


TABLE2_COLUMNS = ["log2_T", "T", "dp_value", "fluid_value",
                  "fluid_regret", "static_regret", "resolving_regret"]


def run_table2(T_list=None) -> list[dict]:
    """Exact regret rows of the benchmark table, one per horizon (default 2^6..2^15).

    Regret is measured against the exact optimal value: positive for the
    two policies, negative for the fluid value (which upper-bounds every
    policy).  The rows are estimate_regret's exact reports on the benchmark
    model: horizons sharing a static rate y0/T share one backward pass; on
    the default grid that is every horizon.
    """
    T_list = list(T_list) if T_list is not None else [2**k for k in range(6, 16)]
    reports = estimate_regret(benchmark_model(), T_list, "round(5/16*T)",
                              ("static", "resolving"))
    return [{
        "log2_T": _log2_label(static.T),
        "T": static.T,
        "dp_value": static.dp_value,
        "fluid_value": static.fluid_value,
        "fluid_regret": static.dp_value - static.fluid_value,
        "static_regret": static.regret_vs_dp,
        "resolving_regret": resolving.regret_vs_dp,
    } for static, resolving in zip(reports[::2], reports[1::2])]


def _log2_label(T: int):
    k = T.bit_length() - 1
    return k if 2**k == T else float(math.log2(T))


# -- sweeps -------------------------------------------------------------------


SWEEP_COLUMNS = ["sweep", "value", "T", "y0", "dp_value", "resolving_regret"]


def run_sweep(config: SweepConfig) -> list[dict]:
    """Re-solving regret curves over T for each sweep value.

    The gap sweep fixes the demand curve (alpha = .75, beta = .5) and moves
    the initial inventory toward the unconstrained optimum .375; the
    curvature sweep sets alpha = beta = b with inventory rate 0.1.  Initial
    units are round(x_T * T), so the realized inventory rate can differ
    from the nominal sweep value at small T.  Each demand curve takes one
    backward pass.  The gap sweep warns when the regret at the optimum .375
    does not increase along T, as the boundary case of the paper has it.
    """
    if config.kind == "gap":  # one demand curve, so one pass
        cases = [(benchmark_model(), x_T, float(x_T)) for x_T in GAP_SWEEP_X_T]
    else:
        cases = [(DemandModel.linear_bernoulli(alpha=b, beta=b, p_lo=0.0, p_hi=1.0),
                  CONCAVITY_SWEEP_X_T, b) for b in CONCAVITY_SWEEP_SLOPES]
    cells = [(model, T, int(round(Fraction(x_T).limit_denominator(10**6) * T)))
             for model, x_T, _ in cases for T in config.T_list]
    labels = [label for _, _, label in cases for _ in config.T_list]
    values = exact_passes(cells, lambda model: (model, {"resolving": resolving_policy(model)}))
    rows = [{
        "sweep": config.kind,
        "value": label,
        "T": T,
        "y0": y0,
        "dp_value": v["dp"],
        "resolving_regret": v["dp"] - v["resolving"],
    } for label, (_, T, y0), v in zip(labels, cells, values)]
    curve = [r["resolving_regret"] for r in rows if r["value"] == 0.375]  # T ascending
    if config.kind == "gap" and not all(a < b for a, b in zip(curve, curve[1:])):
        warnings.warn("boundary-inventory regret is not increasing across the T grid",
                      stacklevel=2)
    return rows


# -- hindsight comparison ------------------------------------------------------


HO_COLUMNS = ["T", "fluid_value", "ho_value", "ci_half_width", "gap"]


def run_ho_compare(model: DemandModel, T_list, x_T: float, replications: int,
                   base_seed: int) -> list[dict]:
    """Gap of the clairvoyant fixed-price benchmark below the fluid value.

    Per replication the clairvoyant sees the realized mean noise xi_bar and
    earns T * r(clip(x_T + xi_bar)), the revenue rate at the realized mean
    rate without inventory censoring (ho_values): the quantity of the
    benchmark's hindsight bound, whose gap to the fluid value stays bounded
    by a constant independent of T.  estimate_regret's "ho" rows are the
    censored revenue of the price best in hindsight instead (ho_revenues).
    One noise pass serves every horizon; the rows follow T_list, repeats
    included.  A bernoulli model raises UnsupportedModelError.
    """
    rows = []
    for T, values in zip(T_list, ho_values(model, T_list, x_T, base_seed, replications)):
        fluid = fluid_value_at_rate(model, T, x_T)
        mean = float(values.mean())
        rows.append({
            "T": T,
            "fluid_value": fluid,
            "ho_value": mean,
            "ci_half_width": ci_half_width(values, 0.95),
            "gap": fluid - mean,
        })
    return rows


# -- regret report emission -----------------------------------------------------


REGRET_COLUMNS = ["T", "policy", "value", "ci_half_width",
                  "regret_vs_dp", "regret_vs_fluid"]


def regret_report_rows(reports) -> list[dict]:
    """One row per RegretReport: its fields named by REGRET_COLUMNS."""
    return [{column: getattr(r, column) for column in REGRET_COLUMNS} for r in reports]


# -- trace emission ---------------------------------------------------------------


TRACE_COLUMNS = ["tau_remaining", "price", "demand_rate", "xi",
                 "realized_demand", "inventory_after", "revenue"]


def trace_rows(trace) -> list[dict]:
    return [{
        "tau_remaining": int(trace.tau_remaining[i]),
        "price": float(trace.price[i]),
        "demand_rate": float(trace.demand_rate[i]),
        "xi": float(trace.xi[i]),
        "realized_demand": float(trace.realized_demand[i]),
        "inventory_after": float(trace.inventory_after[i]),
        "revenue": float(trace.revenue[i]),
    } for i in range(trace.T)]


def trace_csv(trace) -> str:
    """write_csv(trace_rows(trace), TRACE_COLUMNS), formatted column by column
    from the trace's arrays: str of each period index, repr of each float."""
    columns = [map(str, trace.tau_remaining.tolist())]
    columns += [map(float.__repr__, getattr(trace, c).tolist()) for c in TRACE_COLUMNS[1:]]
    return "\n".join([",".join(TRACE_COLUMNS), *map(",".join, zip(*columns))]) + "\n"
