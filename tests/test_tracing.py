"""The traced benchmark run patches splitquad's entry points by name; a name
it patches that is deleted or renamed fails here, not in the benchmark, and
so does a result whose shape its work callbacks no longer read."""

import importlib.util
from pathlib import Path

from splitquad import counter, delta_kernel, exp_sums, sing_integral, weights
from splitquad.forms import LatticeSpec

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
        # one traced call: the wrappers' annotations read w.is_biradial (a
        # Gaussian takes the theta integral, appendix-example the x-projection)
        w = weights.AppendixExample(6)
        val = tracer.run_op(0, "cli.test", lambda: sing_integral.sigma_infty(w, 0.0))
    finally:
        tracer.restore()
    assert patched and all(wrapped)
    for owner, attr, fn in patched:
        assert _attr(owner, attr) is fn is before[id(owner)][attr], attr
    assert val == sing_integral.sigma_infty(w, 0.0)
    assert {"sing_integral.sigma_infty", "sing_integral.i_x_projection"} \
        <= {s.name for s in tracer.spans}


def test_traced_round_reads_the_work_of_every_layer():
    # the work callbacks read SigmaReport.per_prime and .cutoff and
    # CountResult's value, tail and visited count
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    w = weights.GaussianWeight(1.0, 6)

    def round_():
        return (exp_sums.sigma_euler(50, 6, 36), exp_sums.sigma_remark5_product(50, 3),
                exp_sums.sigma_dirichlet(100, 6, 36),
                counter.enumerate_N_L(w, LatticeSpec(L=2, m=0), 1e-8))
    try:
        tracing.instrument(tracer)
        tracer.run_op(0, "cli.test", round_)
    finally:
        tracer.restore()
    euler, remark5, dirichlet, count = round_()
    spans = {s.name: s for s in tracer.spans}
    assert spans["exp_sums.sigma_euler"].work == len(euler.per_prime) == 15
    assert spans["exp_sums.sigma_remark5_product"].work == len(remark5.per_prime) == 15
    assert spans["exp_sums.sigma_dirichlet"].work == 150
    enum = spans["counter.enumerate_N_L"]
    assert enum.work == count.lattice_points_visited > 0
    assert enum.tag == (2.0, count.tail_estimate / count.value)
    # layer_metrics, as run.py --trace 1 calls it, reads the same spans
    metrics = tracing.layer_metrics(tracer.spans, (2,), ())
    assert metrics["exp_sums.primes"] == 30
    assert metrics["counter.points"] == count.lattice_points_visited
