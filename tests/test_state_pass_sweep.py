"""``tools/state_pass_sweep.py``: the cutover rule, small sweeps, and
the cutovers of the state pass and of ``simulate`` against the
committed sweeps they come from."""

import importlib.util
import json

import periodickf.filtering as filtering_module
import periodickf.model as model_module
from conftest import ROOT

_spec = importlib.util.spec_from_file_location(
    "state_pass_sweep", ROOT / "tools" / "state_pass_sweep.py")
state_pass_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(state_pass_sweep)


def _case(p, n, gains, loop_us, band_us):
    return {"p": p, "n": n, "gains": gains, "loop_us": loop_us,
            "band_us": band_us}


def test_cutover_is_the_last_p_before_a_group_median_within_the_margin():
    # p = 2: one slow case does not move its group's median (0.5);
    # p = 3: the (50, settled) median 0.94 is faster by the margin;
    # p = 4: the (200, unsettled) median 0.96 is not, so p = 5 is not
    # reached
    cases = [_case(2, 50, "settled", 10.0, band) for band in (2.0, 5.0, 9.9)]
    cases += [_case(3, 50, "settled", 10.0, band) for band in (9.0, 9.4, 9.6)]
    cases += [_case(3, 200, "unsettled", 10.0, 1.0)]
    cases += [_case(4, 50, "settled", 10.0, 5.0)]
    cases += [_case(4, 200, "unsettled", 10.0, band)
              for band in (9.6, 9.7, 1.0)]
    cases += [_case(5, 50, "settled", 10.0, 1.0)]
    assert state_pass_sweep.MARGIN == 0.05
    assert state_pass_sweep.cutover_of(cases) == 3
    assert state_pass_sweep.cutover_of(
        [_case(2, 50, "settled", 10.0, 9.6)]) == 1


def test_simulate_cutover_groups_by_length_and_noise():
    # r = 2: both groups' medians are faster by the margin; r = 3: the
    # (50, "d=r") median 0.96 is not, though (50, "d=1") is, so r = 4 is
    # not reached
    def case(r, n, noise, band):
        return {"r": r, "n": n, "noise": noise, "loop_us": 10.0,
                "band_us": band}
    cases = [case(2, 50, noise, band) for noise in ("d=1", "d=r")
             for band in (9.0, 9.5, 1.0)]
    cases += [case(3, 50, "d=1", 1.0)]
    cases += [case(3, 50, "d=r", band) for band in (9.6, 9.7, 1.0)]
    cases += [case(4, 50, "d=r", 1.0)]
    assert state_pass_sweep.simulate_cutover_of(cases) == 2


def test_small_sweep_times_both_forms_and_restores_the_cutover(monkeypatch):
    for name, value in (("P_RANGE", range(2, 4)), ("LENGTHS", (5,)),
                        ("PERIODS", (2,)), ("ROUNDS", 1), ("REPEAT", 1)):
        monkeypatch.setattr(state_pass_sweep, name, value)
    cutover = filtering_module._BAND_MAX_P
    cases = state_pass_sweep.sweep()
    assert filtering_module._BAND_MAX_P == cutover
    assert [(c["p"], c["m"], c["gains"]) for c in cases] == [
        (2, 1, "settled"), (2, 1, "unsettled"), (3, 1, "settled"),
        (3, 1, "unsettled"), (3, 2, "settled"), (3, 2, "unsettled")]
    assert all(c["loop_us"] > 0 and c["band_us"] > 0 for c in cases)


def test_small_simulate_sweep_times_both_forms_and_restores_the_cutover(
        monkeypatch):
    for name, value in (("P_RANGE", range(2, 4)), ("LENGTHS", (5,)),
                        ("PERIODS", (2,)), ("ROUNDS", 1), ("REPEAT", 1)):
        monkeypatch.setattr(state_pass_sweep, name, value)
    cutover = model_module._BAND_MAX_R
    cases = state_pass_sweep.simulate_sweep()
    assert model_module._BAND_MAX_R == cutover
    assert [(c["r"], c["d"], c["noise"]) for c in cases] == [
        (2, 1, "d=1"), (2, 2, "d=r"), (3, 1, "d=1"), (3, 3, "d=r")]
    assert all(c["loop_us"] > 0 and c["band_us"] > 0 for c in cases)


def test_state_pass_cutover_is_the_committed_sweeps():
    sweep = json.loads((ROOT / "BENCH_32.json").read_text())["sweep"]
    assert state_pass_sweep.cutover_of(sweep["cases"]) == sweep["cutover"]
    assert filtering_module._BAND_MAX_P == sweep["cutover"]


def test_simulate_cutover_is_the_committed_sweeps():
    sweep = json.loads((ROOT / "BENCH_32.json").read_text())["sweep"]
    simulate = sweep["simulate"]
    assert (state_pass_sweep.simulate_cutover_of(simulate["cases"])
            == simulate["cutover"])
    assert model_module._BAND_MAX_R == simulate["cutover"]
