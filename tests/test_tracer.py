"""perfbench's name-based tracer still finds every function it targets in the package."""

import importlib
from pathlib import Path

import igeo
from igeo import ParamPoint, cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    main = cli.main
    with tracer.Tracer() as t:
        assert cli.main is not main
        igeo.audit(ParamPoint.theta(0.5, 1.5))
    assert t.absent == []
    assert cli.main is main
    # the audit's tensor law and metric transform are traced through geometry
    assert t.counts["audit"] == 1 and t.counts["transform"] == 2
