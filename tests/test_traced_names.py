"""Every name the benchmark tracer wraps still resolves in srlab.

``perfbench/spans.py`` wraps srlab functions and methods by name, and a
traced run reports a name it cannot find as absent, so a renamed or
deleted function silently stops being timed.  The spans file is loaded
from the checkout and only read.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

#: names the tracer still lists although srlab deleted them; each is to
#: be renamed or dropped in a benchmark change, never added to
STALE = {
    "srlab._engine.Codim2Engine.topin_clauses",
    "srlab._engine.Codim2Engine.chardepth_clauses",
    "srlab._engine.Codim2Engine.main2_clauses",
    "srlab._engine.Codim2Engine.corlinear_clauses",
    "srlab._engine.Codim2Engine.froberg_clauses",
    "srlab._engine.PureSpaceEngine.corbk_clauses",
    "srlab._engine.Codim2Engine._projdim_at_most_3",
    "srlab._engine.chordless_span_adj",
    "srlab.homology.rank_gf2_columns",
}


def _traced_functions() -> list[tuple[str, str, str]]:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.FUNCTIONS


def test_traced_names_resolve():
    unresolved = set()
    for _, modname, attr in _traced_functions():
        target = importlib.import_module(modname)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if target is None:
            unresolved.add(f"{modname}.{attr}")
    assert unresolved <= STALE
