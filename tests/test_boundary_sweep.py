"""Every numeric flag at the edges of its type: gen-data's, and the config flags of the stage commands.

A case passes when it exits 2 with no output directory, or exits 0 with no RuntimeWarning; the one other
outcome allowed is exit 4 for a stage that diverged, with no ``--out`` left. Each value is passed as
``--flag=value``, since argparse reads a ``-1e308`` that follows a space as an option. The integer flags
stop at 2: a size such as ``--n-target 10**10`` would ask for more memory than a desk machine has.
"""

import warnings

import pytest

from ssda_lab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

FLOATS = ["0", "5e-324", "-5e-324", "1e308", "-1e308", "inf", "-inf", "nan"]
INTS = ["-1", "0", "1", "2"]
GEN_DATA_CASES = [(flag, value) for flag in ("--separation", "--rotation", "--scale", "--skew") for value in FLOATS]
GEN_DATA_CASES += [(flag, value) for flag in ("--classes", "--dim", "--n-source", "--n-target", "--shots",
                                              "--val-per-class", "--seed") for value in INTS]
STAGE_CASES = [(flag, value) for flag in ("--lambda", "--r-u", "--label-momentum") for value in FLOATS]
STAGE_CASES += [(flag, value) for flag in ("--t-max", "--seed") for value in INTS]


def _check_outcome(argv: list, out, capsys) -> None:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exited:  # argparse refuses a value of the wrong type
            code = exited.code
    err = capsys.readouterr().err
    if code == EXIT_CONFIG:
        assert not out.exists()
    elif code == EXIT_OK:
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    else:
        assert code == EXIT_RUNTIME and "diverged" in err, (code, err)
        assert not out.exists()


@pytest.fixture(scope="module")
def default_split(tmp_path_factory):
    split = tmp_path_factory.mktemp("sweep") / "split"
    assert main(["gen-data", "--out", str(split)]) == EXIT_OK
    return split


@pytest.mark.parametrize("flag, value", GEN_DATA_CASES, ids=[f"{f[2:]}={v}" for f, v in GEN_DATA_CASES])
def test_gen_data_flag_at_its_extremes(tmp_path, capsys, flag, value):
    out = tmp_path / "split"
    _check_outcome(["gen-data", "--out", str(out), f"{flag}={value}"], out, capsys)


@pytest.mark.parametrize("flag, value", STAGE_CASES, ids=[f"{f[2:]}={v}" for f, v in STAGE_CASES])
def test_stage_flag_at_its_extremes(default_split, tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    _check_outcome(["run-pipeline", "--split", str(default_split), "--out", str(out), "--t-max=100",
                    f"{flag}={value}"], out, capsys)
