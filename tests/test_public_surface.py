"""The package's public surface: every exported name has one reason to exist.

A public name stays only if a run, an oracle or a criterion reaches it:

config    -- the experiment runner reaches it from a config section or key
cli       -- the command line reaches it
oracle    -- one of the Monte Carlo or exhaustive oracles, or what they draw with
criterion -- an acceptance criterion in tests/test_acceptance.py calls it
paper     -- a quantity or model of the paper that the README names
error     -- a typed error the package raises
type      -- the type of a result or an argument of one of the above

A new public name needs a row here, and a deleted one loses its row.
"""

import re
import types
from pathlib import Path

import pytest

import sptrecon as sp
from sptrecon.errors import _SCALE_LIMITS

ROOT = Path(__file__).resolve().parents[1]
REASONS = {"config", "cli", "oracle", "criterion", "paper", "error", "type"}

# name -> (reason, where it is reached)
SURFACE = {
    # configuration objects and the runner's entry points
    "SourceParams": ("config", "[source]"),
    "SensorField": ("config", "[field]"),
    "place_sensors": ("config", "[field] placement_seed"),
    "load_field": ("config", "[field] positions_file"),
    "save_field": ("config", "writes the [field] positions_file format"),
    "LinkParams": ("config", "[link]"),
    "SchemeConfig": ("config", "[scheme]"),
    "Scheme": ("config", "[scheme] scheme"),
    "OptimizerConfig": ("config", "[optimize]"),
    "mssc": ("config", "the mssc column and sweep axis"),
    "scheme_weights": ("config", "the weights of every analytic, MSSC and optimize row"),
    "blep_average": ("config", "the eps_bar column of the analytic rows"),
    "average_mse": ("config", "the analytic output's mse_analytic"),
    "bounds": ("config", "the analytic output's mse_lb and mse_ub"),
    "threshold_infer": ("config", "the regions output's thr1"),
    "threshold_asyn_over_syn": ("config", "the regions output's thr2"),
    "classify": ("config", "the regions output's winner"),
    "optimize_blocklength": ("config", "the optimize output's no/syn rows"),
    "jtsbo": ("config", "the optimize output's asyn row"),
    "exhaustive_search": ("config", "[optimize] include_exhaustive"),
    # oracles
    "simulate_event_level": ("oracle", "the event-level Monte Carlo oracle"),
    "simulate_data_level": ("oracle", "the data-level Monte Carlo oracle"),
    "exhaustive_region_oracle": ("oracle", "the grid oracle of the preference regions"),
    "blep_segmented": ("oracle", "the event-level oracle's success draws"),
    "sample_joint_gaussian": ("oracle", "the data-level oracle's field draws"),
    # acceptance criteria
    "expected_gap_syn": ("criterion", "criterion 3"),
    "expected_gap_asyn": ("criterion", "criterion 3"),
    "optimize_time_shift": ("criterion", "criterion 7, the shift-only baseline"),
    "eval_H": ("criterion", "criterion 9"),
    "eval_J": ("criterion", "criterion 9"),
    "eval_F": ("criterion", "criterion 9"),
    "dblep_dN": ("criterion", "criterion 9"),
    # paper quantities the README names
    "ClosedForm": ("paper", "the closed forms' one kernel"),
    "upsilon": ("paper", "the MSSC threshold of the dip regime"),
    "eps_star_asyn": ("paper", "the interior eps-minimizer"),
    "blep_instantaneous": ("paper", "the normal-approximation BLEP"),
    "blep_average_simplified": ("paper", "the adaptation's simplified BLEP"),
    "correlation": ("paper", "the separable exponential correlation"),
    "reindex_by_correlation": ("paper", "synchronous inference's preference order"),
    "max_blocklength": ("paper", "the timing rule N T_s + (M - 1) h <= T"),
    "shift_count": ("paper", "the time-shift grid of the timing rule"),
    "expected_evaluation_count": ("paper", "the exhaustive search's cost model"),
    # errors
    "InvalidConfigError": ("error", ""),
    "InvalidQueryError": ("error", ""),
    "UndefinedMsscError": ("error", ""),
    "DomainError": ("error", ""),
    "DecompositionError": ("error", ""),
    "BracketError": ("error", ""),
    "InvariantError": ("error", ""),
    "RegionDegenerateError": ("error", ""),
    "ScaleLimitError": ("error", ""),
    # returned and argument types
    "SimReport": ("type", "returned by both Monte Carlo oracles"),
    "OptResult": ("type", "returned by every optimizer"),
    "TraceRow": ("type", "the rows of OptResult.trace"),
    "BoundAxis": ("type", "the axis argument of bounds"),
}


def _public_names(module):
    """Every public, non-module attribute of ``module``."""
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def _unlisted_and_stale(module):
    """(exported names without a row, rows without an exported name)."""
    public = _public_names(module)
    return public - SURFACE.keys(), SURFACE.keys() - public


def test_every_public_name_has_a_row_and_every_row_a_name():
    assert _unlisted_and_stale(sp) == (set(), set())


def test_an_unlisted_public_name_fails_the_check(monkeypatch):
    monkeypatch.setattr(sp, "extra_helper", lambda: None, raising=False)
    monkeypatch.delattr(sp, "upsilon")
    unlisted, stale = _unlisted_and_stale(sp)
    assert "extra_helper" in unlisted and "upsilon" in stale


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_each_row_names_one_reason_that_holds(name):
    reason, _ = SURFACE[name]
    assert reason in REASONS
    value = getattr(sp, name)
    if reason == "error":
        assert isinstance(value, type) and issubclass(value, Exception)
    elif reason == "type":
        assert isinstance(value, type) and not issubclass(value, Exception)
    elif reason == "criterion":
        assert f"sp.{name}(" in (ROOT / "tests" / "test_acceptance.py").read_text()
    elif reason == "paper":
        readme = (ROOT / "README.md").read_text()
        assert re.search(rf"(`|`sptrecon\.|sp\.){name}\b", readme), name


# ---------------------------------------------------------------------------
# the README's "Scale limits" table and the package's one table of limits
# ---------------------------------------------------------------------------

def _readme_limits(readme):
    """kind -> limit of each row of the README's "Scale limits" table, the
    limit read from its first word, 2^k or a number with thousands commas."""
    section = readme.split("\n## Scale limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines()
            if line.startswith("| `")]
    limits = {}
    for kind, _, limit, *_ in rows:
        word = limit.split()[0]
        base, _, power = word.partition("^")
        limits[kind.strip().strip("`")] = (int(base) ** int(power) if power
                                           else int(word.replace(",", "")))
    return limits


def _code_limits():
    return {kind: entry[0] for kind, entry in _SCALE_LIMITS.items()}


def test_the_readme_lists_every_scale_limit_and_its_value():
    assert _readme_limits((ROOT / "README.md").read_text()) == _code_limits()


def test_a_scale_limit_changed_on_one_side_fails_the_check(monkeypatch):
    readme = (ROOT / "README.md").read_text()
    assert "| 2^26 points |" in readme and "| `grid` |" in readme
    for edited in (readme.replace("| 2^26 points |", "| 2^27 points |"),
                   readme.replace("| `grid` |", "| `grid_points` |")):
        assert _readme_limits(edited) != _code_limits()
    monkeypatch.setitem(_SCALE_LIMITS, "grid", (1 << 27, *_SCALE_LIMITS["grid"][1:]))
    assert _readme_limits(readme) != _code_limits()
