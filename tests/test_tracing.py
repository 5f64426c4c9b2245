"""The traced benchmark run patches splitquad's entry points by name; a name
it patches that is deleted or renamed fails here, not in the benchmark."""

import importlib.util
from pathlib import Path

from splitquad import counter, delta_kernel, exp_sums, sing_integral, weights

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attr(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_instrument_patches_and_restore_puts_back_every_attribute():
    tracing = _load_tracing()
    owners = (counter, delta_kernel, exp_sums, sing_integral, weights.GaussianWeight,
              weights.ProductBump, weights.AppendixExample)
    before = {id(o): dict(vars(o)) for o in owners}
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        patched = list(tracer._patched)
        wrapped = [_attr(owner, attr) is not fn for owner, attr, fn in patched]
        # one traced call: the wrappers' annotations read w.is_biradial
        w = weights.GaussianWeight(1.0, 6)
        val = tracer.run_op(0, "cli.test", lambda: sing_integral.sigma_infty(w, 0.0))
    finally:
        tracer.restore()
    assert patched and all(wrapped)
    for owner, attr, fn in patched:
        assert _attr(owner, attr) is fn is before[id(owner)][attr], attr
    assert val == sing_integral.sigma_infty(w, 0.0)
    assert {"sing_integral.sigma_infty", "sing_integral.i_x_projection"} \
        <= {s.name for s in tracer.spans}
