"""JSON instance/solution formats, CSV emitters and the campaign writer.

Instance files look like

    {"p": 2, "n0": 2, "b": [20000, 30],
     "agents": [{"c": [-31.5], "d": [120.0], "A": [[1.0], [0.0002]]}, ...]}

with upper limits given as numbers or the string "inf". Solution dumps carry
the primal vector, objective, partition index sets, flags, and optionally the
dual certificate.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from pathlib import Path

from .cargo import (
    CampaignSummary,
    CargoConfig,
    TrialRecord,
    TruncatedGaussianDemand,
    UniformDemand,
)
from .duality import DualCertificate
from .lp_core import AgentProfile, PrimalSolution, SharingProblem
from .sensitivity import EpsilonTable

__all__ = [
    "load_cargo_config",
    "load_instance",
    "problem_to_dict",
    "solution_to_dict",
    "write_campaign",
    "write_epsilon_csv",
    "write_trials_csv",
]


def _limit_from_json(v) -> float:
    if isinstance(v, str):
        if v.lower() in ("inf", "+inf", "infinity"):
            return math.inf
        raise ValueError(f"unrecognized upper-limit string {v!r}")
    return float(v)


def _limit_to_json(v: float):
    return "inf" if math.isinf(v) else float(v)


def _read_json(source):
    """The JSON in a file object or path; any other source as given."""
    if hasattr(source, "read"):
        return json.load(source)
    if isinstance(source, (str, os.PathLike)):
        return json.loads(Path(source).read_text())
    return source


def _typed(name: str, value, kind: type):
    """``value``, or a ValueError naming ``name`` unless it is a JSON
    object (``kind`` dict) or array (``kind`` list)."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "an array"
        raise ValueError(f"{name} must be {expected}, got {type(value).__name__}")
    return value


def _check_keys(name: str, fields: dict, required, optional=()) -> None:
    """ValueError naming ``name`` and the key when ``fields`` is not an
    object, lacks one of ``required`` or has a key in neither ``required``
    nor ``optional``."""
    _typed(name, fields, dict)
    unknown = set(fields) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in fields]
    if missing:
        raise ValueError(f"{name} is missing {missing}")


def load_instance(source) -> SharingProblem:
    """Read a sharing problem from a path, file object, or parsed dict; a
    missing or unknown key, a non-array agent list or field, or an invalid
    agent raises ValueError naming it and its agent."""
    data = _read_json(source)
    _check_keys("instance", data, ("p", "n0", "b", "agents"))
    agents = []
    for i, raw in enumerate(_typed("instance field 'agents'", data["agents"], list)):
        _check_keys(f"agent {i}", raw, ("c", "d", "A"))
        c, d, A = (_typed(f"agent {i} field {key!r}", raw[key], list) for key in "cdA")
        try:
            d = [_limit_from_json(v) for v in d]
            agents.append(AgentProfile(n=len(c), c=c, d=d, A=A))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"agent {i}: {exc}") from exc
    try:
        return SharingProblem(p=data["p"], n0=data["n0"], b=data["b"], agents=tuple(agents))
    except (TypeError, OverflowError) as exc:  # e.g. b given as an object, or as [10**400]
        raise ValueError(f"instance: {exc}") from exc


def problem_to_dict(problem: SharingProblem) -> dict:
    return {
        "p": problem.p,
        "n0": problem.n0,
        "b": [float(v) for v in problem.b],
        "agents": [
            {"c": ag.c.tolist(), "d": [_limit_to_json(v) for v in ag.d.tolist()], "A": ag.A.tolist()}
            for ag in problem.agents
        ],
    }


def solution_to_dict(
    solution: PrimalSolution, dual: DualCertificate | None = None
) -> dict:
    partition = solution.partition
    out = {
        "x": [float(v) for v in solution.x],
        "objective": solution.objective,
        "basic": solution.basis.tolist(),
        "at_lower": list(partition.at_lower),
        "at_upper": list(partition.at_upper),
        "degenerate": solution.degenerate,
        "nonunique": solution.nonunique,
    }
    if dual is not None:
        out["dual"] = {
            "lambda": [float(v) for v in dual.lam],
            "nu": [float(v) for v in dual.nu],
            "h": [float(v) for v in dual.h],
        }
    return out


def _section(name: str, cls, fields: dict):
    """``cls(**fields)``, with a ValueError naming the section and field for
    an unknown or missing field."""
    declared = dataclasses.fields(cls)
    required = [f.name for f in declared if f.default is dataclasses.MISSING]
    _check_keys(name, fields, required, [f.name for f in declared])
    return cls(**fields)


def load_cargo_config(source) -> CargoConfig:
    """Read a campaign config from a path, file object, or parsed dict.

    A missing or unknown field, at the top level or in ``demand``, raises
    ValueError naming the section and the field."""
    data = dict(_typed("config", _read_json(source), dict))
    if not isinstance(data.get("demand"), dict):
        raise ValueError("config is missing the 'demand' object")
    dist = dict(data["demand"])
    kind = dist.pop("kind", "uniform")
    if kind == "uniform":
        demand_cls = UniformDemand
    elif kind in ("truncated_gaussian", "gaussian"):
        demand_cls = TruncatedGaussianDemand
    else:
        raise ValueError(f"unknown demand kind {kind!r}")
    data["demand"] = _section("demand", demand_cls, dist)
    return _section("config", CargoConfig, data)


def write_epsilon_csv(table: EpsilonTable, target) -> None:
    """The interval table as CSV into a path, or into an open text stream
    that is left open, in one write; floats as their round-trip repr.

    The bytes are those of ``csv.writer``'s default dialect: no field needs
    quoting (an int, or a float's repr), and each row ends in \\r\\n."""
    columns = (table.t_low, table.t_high, table.eps_low, table.eps_high, table.eps_explicit)
    rows = zip(range(table.m + 1), *(v.tolist() for v in columns))
    text = "k,t_low,t_high,eps_low,eps_high,eps_explicit\r\n" + "".join(
        "%d,%r,%r,%r,%r,%r\r\n" % row for row in rows
    )
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", newline="") as fh:
            fh.write(text)


def write_trials_csv(records: list[TrialRecord], path) -> None:
    """One row per record, columns in ``TrialRecord`` field order: floats as
    their round-trip repr, counts and flags as integers."""
    names = [f.name for f in dataclasses.fields(TrialRecord)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in records:
            values = [getattr(r, name) for name in names]
            writer.writerow([repr(v) if isinstance(v, float) else int(v) for v in values])


def write_campaign(
    out_dir,
    config: CargoConfig,
    table: EpsilonTable,
    records: list[TrialRecord],
    summary: CampaignSummary,
) -> dict:
    """Write ``trials.csv``, ``epsilon.csv`` and ``summary.json`` of one
    campaign into ``out_dir`` (created if missing); return the summary.json
    payload."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trials_csv(records, out_dir / "trials.csv")
    write_epsilon_csv(table, out_dir / "epsilon.csv")
    config_fields = dataclasses.asdict(config)
    config_fields["demand"] = config_fields.pop("demand")  # after the scalars
    payload = {
        "config": {**config_fields, "arrivals_resolved": config.n_arrivals},
        "summary": dataclasses.asdict(summary),
        "all_covered": summary.all_covered,
    }
    (out_dir / "summary.json").write_text(json.dumps(payload, indent=2) + "\n")
    return payload
