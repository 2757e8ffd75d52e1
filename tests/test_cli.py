import warnings

import pytest

from flowbif import Frame, field_to_text
from flowbif.cli import RunConfig, _UsageError, main
from flowbif.singular import make_normal_form

from conftest import GALLERY

S4 = str(GALLERY / "s4.field")
S5 = str(GALLERY / "s5.field")
SPLIT = str(GALLERY / "saddle_split.family")
PERSIST = str(GALLERY / "persistent_root.family")

BOX = ["--box", "-0.5", "-0.5", "0.5", "0.5"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "flowbif" in capsys.readouterr().out


def test_check_ok(capsys):
    code, out, _ = run_cli(capsys, "check", S4)
    assert code == 0
    assert "ok" in out


def test_check_violation(tmp_path, capsys):
    bad = tmp_path / "bad.field"
    bad.write_text("field bad\nu 1 0 1\nv 0 1 1\n")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "violated" in out
    assert "warning" in err


def test_classify_names_case_and_index(capsys):
    code, out, _ = run_cli(capsys, "classify", S4, *BOX)
    assert code == 0
    assert "S4 index=-1" in out


def test_classify_csv_header_stable(capsys):
    code, out, _ = run_cli(capsys, "classify", S4, *BOX, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y,kind,index,case,alpha,beta,lam,k,n"
    assert len(lines) == 2
    assert lines[1].split(",")[2:5] == ["degenerate", "-1", "S4"]


def test_index_integer_plus_diagnostics(capsys):
    code, out, _ = run_cli(
        capsys, "index", S4, "--center", "0", "0", "--radius", "0.1"
    )
    assert code == 0
    assert out.splitlines()[0] == "index=-1"
    assert "samples=" in out


def test_index_zero_on_curve_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "index", S4, "--center", "0.1", "0", "--radius", "0.1"
    )
    assert code == 1
    assert "on curve" in err


def test_index_overflow_on_curve_exits_1(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "index", S4, "--center", "0", "0", "--radius", "1e300"
        )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not finite" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# a center with field magnitude 1e200: angle and determinant products overflow
# unless they are scaled first
HUGE = "field big\nu 0 1 1e200\nv 1 0 -1e200\n"


def test_index_of_huge_field(tmp_path, capsys):
    path = tmp_path / "big.field"
    path.write_text(HUGE)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "index", str(path), "--center", "0", "0", "--radius", "1"
        )
    assert code == 0
    assert err == ""
    assert out.splitlines()[0] == "index=1"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_classify_huge_field(tmp_path, capsys):
    path = tmp_path / "big.field"
    path.write_text(HUGE)
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert out == "x=0 y=0 kind=center index=1\n"


def test_classify_moved_small_s2(tmp_path, capsys):
    # S2 moved to (0.3, -0.2), turned by 1 rad and scaled by 1e-3
    rot = Frame.rotation((0.0, 0.0), 1.0).rot
    f = make_normal_form(1, 1, 1, 3, 3).in_frame(Frame.rotation(-rot.T @ (0.3, -0.2), -1.0))
    path = tmp_path / "moved_s2.field"
    path.write_text(field_to_text(f * 1e-3, "moved_s2"))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert "case=S2 index=-1" in out
    assert "k=3 n=3" in out


def test_bifurcate_text_report(capsys):
    code, out, _ = run_cli(capsys, "bifurcate", SPLIT, "--point", "0", "0")
    assert code == 0
    assert "decision=saddle-split" in out
    assert "verdict=confirmed" in out
    assert "exponent=1/2" in out


def test_bifurcate_refuses_s5_family(tmp_path, capsys):
    fam = tmp_path / "s5.family"
    field_text = (GALLERY / "s5.field").read_text().splitlines()[1:]
    fam.write_text(
        "t0 0\nfield u0\n" + "\n".join(field_text) + "\nfield u1\nu 0 0 1\n"
    )
    code, _, err = run_cli(capsys, "bifurcate", str(fam), "--point", "0", "0")
    assert code == 2
    assert "indeterminate higher-order" in err


def test_bifurcate_on_plain_field_is_an_error(capsys):
    code, _, err = run_cli(capsys, "bifurcate", S4, "--point", "0", "0")
    assert code == 1
    assert "family" in err


def test_classify_on_family_is_an_error(capsys):
    code, _, err = run_cli(capsys, "classify", SPLIT)
    assert code == 1
    assert "single-field" in err


def test_trace_summary(capsys):
    code, out, _ = run_cli(
        capsys, "trace", S4, "--seed", "0.2", "0.1", *BOX
    )
    assert code == 0
    assert "end=box-exit" in out


def test_trace_csv(capsys):
    code, out, _ = run_cli(
        capsys, "trace", S4, "--seed", "0.2", "0.1", *BOX, "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertex,x,y"
    assert lines[1].startswith("0,0.2,0.1")


def test_trace_seed_on_zero_exits_1(capsys):
    code, out, err = run_cli(capsys, "trace", S4, "--seed", "0", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "singular point" in err


def test_trace_seed_outside_box_exits_1(capsys):
    code, out, err = run_cli(capsys, "trace", S4, "--seed", "5", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "outside the box" in err


def test_trace_closes_at_its_seed(capsys):
    code, out, _ = run_cli(capsys, "trace", str(GALLERY / "s6.field"), "--seed", "0.3", "0.2")
    assert code == 0
    head, ends = out.splitlines()
    assert "end=closed" in head
    # closure does not wait for a short step that passes close to the seed
    assert int(head.split("vertices=")[1]) < 1000
    assert ends == "first=(0.3, 0.2) last=(0.3, 0.2)"


# u = (x + 0.1, y): a source, which has no stream function
SOURCE = "field source\nu 1 0 1\nu 0 0 0.1\nv 0 1 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--seed", "0.3", "0.2"),
        ("signature",),
        ("render", "--out", "portrait.svg"),
        ("classify",),
    ],
)
def test_tracing_refuses_non_divergence_free_field(tmp_path, capsys, argv):
    path = tmp_path / "source.field"
    path.write_text(SOURCE)
    argv = [a if a != "portrait.svg" else str(tmp_path / a) for a in argv]
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert out == ""
    assert "error: field is not divergence-free" in err
    assert not (tmp_path / "portrait.svg").exists()


def test_signature_output(capsys):
    code, out, _ = run_cli(capsys, "signature", S4, *BOX)
    assert code == 0
    assert "node 0: degenerate" in out
    assert "index=-1" in out


def test_render_writes_svg_and_csv(tmp_path, capsys):
    out_path = tmp_path / "portrait.svg"
    code, out, _ = run_cli(capsys, "render", S4, *BOX, "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<?xml")
    assert "world box" in svg
    assert 'viewBox="0 0 1000 1000"' in svg
    csv_text = (tmp_path / "portrait.csv").read_text()
    assert csv_text.splitlines()[0] == "orbit,vertex,x,y"


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "classify", "no-such-file.field")
    assert code == 1
    assert "error" in err


def test_bad_flags_exit_1(capsys):
    code, _, err = run_cli(capsys, "classify", S4, "--box", "1", "1", "0", "0")
    assert code == 1
    assert "usage error" in err
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_single_rung_ladder_exits_1(capsys):
    # the verdict compares the two smallest rungs on each side
    argv = ("bifurcate", SPLIT, "--point", "0", "0", "--eps-ladder", "0.01")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "usage error" in err and "at least two values" in err


def test_byte_identical_reruns(capsys):
    args = ("bifurcate", PERSIST, "--point", "0", "0", "--format", "csv")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    args = ("classify", S4, *BOX)
    _, out3, _ = run_cli(capsys, *args)
    _, out4, _ = run_cli(capsys, *args)
    assert out3 == out4


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", S4, "--box", "nan", "-1", "1", "1"),
        ("classify", S4, "--box", "-1", "-1", "inf", "1"),
        ("bifurcate", SPLIT, "--point", "nan", "0"),
        ("bifurcate", SPLIT, "--point", "0", "inf"),
        ("index", S4, "--center", "nan", "0", "--radius", "0.1"),
        ("index", S4, "--center", "0", "0", "--radius", "nan"),
        ("index", S4, "--center", "0", "0", "--radius", "inf"),
        ("trace", S4, "--seed", "nan", "0.1"),
        ("trace", S4, "--seed", "0.3", "inf"),
        ("classify", S4, "--tol", "nan"),
        ("classify", S4, "--tol", "inf"),
        ("bifurcate", SPLIT, "--point", "0", "0", "--eps-scale", "nan"),
        ("bifurcate", SPLIT, "--point", "0", "0", "--eps-scale", "inf"),
        ("bifurcate", SPLIT, "--point", "0", "0", "--eps-ladder", "nan", "1e-3"),
        ("bifurcate", SPLIT, "--point", "0", "0", "--eps-ladder", "inf", "1e-3"),
    ],
)
def test_non_finite_flags_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ")


LADDER = ("bifurcate", SPLIT, "--point", "0", "0", "--eps-ladder")


@pytest.mark.parametrize(
    "argv,decimal",
    [
        (("classify", S4, "--box", "-1e-1", "-1e-1", "1e-1", "1e-1"),
         ("classify", S4, "--box", "-0.1", "-0.1", "0.1", "0.1")),
        ((*LADDER, "-1e-2", "-1e-3", "1e-2", "1e-3", "--no-verify"),
         (*LADDER, "-0.01", "-0.001", "0.01", "0.001", "--no-verify")),
        ((*LADDER, "-1E-2", "1.e-3"), (*LADDER, "-0.01", "0.001")),
        (("trace", S4, "--seed", "-3e-1", "2e-1"), ("trace", S4, "--seed", "-0.3", "0.2")),
        (("index", S4, "--center", "-1e-2", "0", "--radius", "0.1"),
         ("index", S4, "--center", "-0.01", "0", "--radius", "0.1")),
        (("bifurcate", SPLIT, "--point", "-0e0", "0", "--no-verify"),
         ("bifurcate", SPLIT, "--point", "-0.0", "0", "--no-verify")),
        (("classify", S4, "--box", "-.5e+0", "-5_0e-2", "0.5", "0.5"), ("classify", S4, *BOX)),
    ],
)
def test_negative_scientific_notation_is_a_number(capsys, argv, decimal):
    # argparse alone reads -1e-1 as an option and stops with "expected 4 arguments"
    code, out, err = run_cli(capsys, *argv)
    assert "expected" not in err
    assert (code, out) == run_cli(capsys, *decimal)[:2]


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", S4, "--seed", "-inf", "0.1"),
        ("classify", S4, "--box", "-1", "-NaN", "1", "1"),
        ("bifurcate", SPLIT, "--point", "0", "0", "--eps-ladder", "-Infinity", "1e-3"),
    ],
)
def test_negative_non_finite_flags_fail_the_finite_check(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: numeric flags must be finite")


def test_runconfig_validates_ladder():
    with pytest.raises(_UsageError):
        RunConfig("bifurcate", path="x", ladder=(1e-3, 1e-2))
    with pytest.raises(_UsageError):
        RunConfig("bifurcate", path="x", ladder=(1e-2,))
    with pytest.raises(_UsageError):
        RunConfig("bifurcate", path="x", ladder=(1e-2, 0.0))
    cfg = RunConfig("bifurcate", path="x", ladder=(1e-2, 1e-3))
    assert cfg.ladder == (1e-2, 1e-3)


def test_runconfig_validates_tolerances():
    with pytest.raises(_UsageError):
        RunConfig("classify", path="x", tol=-1.0)
    with pytest.raises(_UsageError):
        RunConfig("classify", path="x", box=(0.0, 0.0, 0.0, 1.0))
