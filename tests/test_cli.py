"""End-to-end checks of the command-line front end."""

import csv
import io
import json
import math
import pathlib
import shlex

import numpy as np
import pytest

from virasoro import (
    LINE,
    CircleDiffeo,
    NullMetric,
    bott_thurston,
    cartan_schwarzian_estimate,
    checks,
    circle,
    cli,
    embed,
    hyperboloid,
    numerics,
    schwarzian_classical,
    schwarzian_modified,
    schwarzian_universal,
)
from virasoro.hyperboloid import _DIAGONAL_GUARD
from virasoro.numerics import circle_grid
from virasoro.projective import STRUCTURES
from virasoro.serialization import (
    SerializationError,
    diffeo_to_doc,
    dump_document,
    orbit_point_from_doc,
)
from conftest import counting_kernel, traced_peak_mb

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def write_diffeo(tmp_path, d, name="d.json"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fp:
        dump_document(diffeo_to_doc(d), fp)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchwarzianCommand:
    def test_identity_table_is_zero(self, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo.identity())
        code, out, _ = run_cli(capsys, "schwarzian", "--diffeo", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "schwarzian-table"
        assert doc["variant"] == "universal"
        assert len(doc["rows"]) == 256
        assert max(abs(v) for _, v in doc["rows"]) < 1e-12

    def test_modified_value_at_zero(self, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo(0.1, (), (0.2,)))
        code, out, _ = run_cli(
            capsys, "schwarzian", "--diffeo", path, "--variant", "modified"
        )
        assert code == 0
        doc = json.loads(out)
        theta0, value0 = doc["rows"][0]
        assert theta0 == 0.0
        # phi' = 1.2, phi''' = -0.2 at 0: -0.2/1.2 + (1.2^2 - 1)/2.
        expect = -0.2 / 1.2 + 0.5 * (1.2**2 - 1.0)
        assert abs(value0 - expect) < 1e-10

    def test_classical_variant_differs(self, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo(0.0, (), (0.2,)))
        _, out_c, _ = run_cli(
            capsys, "schwarzian", "--diffeo", path, "--variant", "classical"
        )
        _, out_m, _ = run_cli(
            capsys, "schwarzian", "--diffeo", path, "--variant", "modified"
        )
        v_c = json.loads(out_c)["rows"][0][1]
        v_m = json.loads(out_m)["rows"][0][1]
        assert abs((v_m - v_c) - 0.5 * (1.2**2 - 1.0)) < 1e-10

    def test_csv_output(self, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo.identity())
        code, out, _ = run_cli(
            capsys, "--format", "csv", "--grid", "64", "schwarzian", "--diffeo", path
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theta,value"
        assert len(lines) == 65

    def test_reads_stdin(self, capsys, monkeypatch):
        buf = io.StringIO()
        dump_document(diffeo_to_doc(CircleDiffeo.rotation(0.3)), buf)
        monkeypatch.setattr(cli.sys, "stdin", io.StringIO(buf.getvalue()))
        code, out, _ = run_cli(capsys, "schwarzian", "--diffeo", "-")
        assert code == 0
        assert json.loads(out)["kind"] == "schwarzian-table"

    def test_grid_flag_controls_rows(self, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo.identity())
        _, out, _ = run_cli(capsys, "--grid", "64", "schwarzian", "--diffeo", path)
        assert len(json.loads(out)["rows"]) == 64


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "suite", ["cocycles", "curvature", "hessian", "symplectic", "bott-thurston", "ghys"]
    )
    def test_suite_passes(self, capsys, suite):
        code, out, _ = run_cli(capsys, "verify", suite)
        assert code == 0, out
        doc = json.loads(out)
        assert doc["kind"] == "verify-report"
        assert doc["suite"] == suite
        assert doc["passed"] is True
        for check in doc["checks"]:
            assert check["passed"], check

    def test_failing_check_sets_exit_code(self, capsys, monkeypatch):
        forced = checks.report("kernel-of-projective-lifts", 1.0)
        monkeypatch.setitem(cli._SUITES, "cocycles", lambda config: [forced])
        code, out, _ = run_cli(capsys, "verify", "cocycles")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_bounds_are_pinned(self):
        # The contract values of every named check; loosening one in the
        # library fails here.
        assert checks.BOUNDS == {
            "universal-cocycle[torus]": (1e-8, "<="),
            "universal-cocycle[line]": (1e-8, "<="),
            "kernel-of-projective-lifts": (1e-9, "<="),
            "curved-curvature[K=1/c]": (1e-6, "<="),
            "flat-curvature[K=0]": (1e-8, "<="),
            "pullback-curvature[K=1/c]": (1e-5, "<="),
            "transverse-hessian[(1/3)S]": (1e-5, "<="),
            "gelfand-fuchs[(n^3-n)pi]": (1e-8, "<="),
            "gelfand-fuchs-sl2-kernel": (1e-10, "<="),
            "flat-orbit-two-path": (1e-9, "<="),
            "symplectic-two-path": (1e-3, "<="),
            "identity-pairs": (1e-10, "<="),
            "two-cocycle-identity": (1e-8, "<="),
            "chain-rule-route": (1e-7, "<="),
            "inverse-round-trip": (1e-12, "<="),
            "schwarzian-zero-count": (4.0, ">="),
        }

    def test_inverse_fault_fails_only_the_round_trip(self, monkeypatch):
        # 1e-9 on one coefficient of every inverse: the round trip is the
        # one bott-thurston check that reads ``inverse``.
        def faulty(d):
            inv = circle.inverse(d)
            return CircleDiffeo(inv.shift, inv.cos + np.eye(inv.modes)[0] * 1e-9, inv.sin)

        monkeypatch.setattr(checks, "inverse", faulty)
        verdicts = {c["name"]: c["passed"] for c in cli._SUITES["bott-thurston"](cli.RunConfig(seed=0))}
        assert verdicts == {
            "identity-pairs": True,
            "two-cocycle-identity": True,
            "chain-rule-route": True,
            "inverse-round-trip": False,
        }

    def test_universal_cocycle_reads_the_tables(self, two_mode, monkeypatch):
        # The residual is read off the two fields' samples: the check makes
        # no kernel pass beyond building the fields, and its value is the
        # fields' evaluation on the same grid, bit for bit.
        d2 = CircleDiffeo(-0.4, (0.1,), (-0.05, 0.02))
        sizes = counting_kernel(monkeypatch)
        joint = schwarzian_universal(circle.compose(two_mode, d2), LINE, 128)
        split = schwarzian_universal(two_mode, LINE, 128).pullback(d2) + schwarzian_universal(d2, LINE, 128)
        tables = list(sizes)
        sizes.clear()
        value = checks.universal_cocycle(two_mode, d2, LINE, 128)
        assert sizes == tables
        theta = circle_grid(128)
        assert value == float(np.max(np.abs(joint.eval(theta) - split.eval(theta))))

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "ghys")
        _, second, _ = run_cli(capsys, "verify", "ghys")
        assert first == second

    def test_seed_changes_draws(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "bott-thurston")
        _, second, _ = run_cli(capsys, "--seed", "7", "verify", "bott-thurston")
        assert json.loads(first)["passed"] and json.loads(second)["passed"]
        v1 = json.loads(first)["checks"][1]["value"]
        v2 = json.loads(second)["checks"][1]["value"]
        assert v1 != v2

    def test_cocycles_seed_30_passes(self, capsys):
        # Rounded phases n * psi in the rotated lifts put this seed's kernel
        # row at 7.8e-9, above its 1e-9 bound.
        code, out, _ = run_cli(capsys, "--seed", "30", "verify", "cocycles")
        assert code == 0, out

    @pytest.mark.parametrize("seed", ["47", "128"])
    def test_cocycles_seeds_where_compose_lost_modes_pass(self, capsys, seed):
        # The fit's floor once read the constant shift too and dropped real
        # high modes of compose, which put a universal-cocycle row at 1.6e-8
        # (seed 47, torus) or 2.5e-8 (seed 128, line), above its 1e-8 bound.
        code, out, _ = run_cli(capsys, "--seed", seed, "verify", "cocycles")
        assert code == 0, out
        assert all(row["passed"] for row in json.loads(out)["checks"])

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "verify", "ghys")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,value,bound,comparison,passed"
        assert lines[1].startswith("schwarzian-zero-count,")


class TestMetricMapCommand:
    def test_reference_value_and_masking(self, capsys):
        code, out, _ = run_cli(capsys, "--grid", "64", "metric-map")
        assert code == 0
        doc = json.loads(out)
        assert doc["metric"] == {"flat": False, "c": 1.0, "pullback": False}
        rows = doc["rows"]
        assert len(rows) == 64 * 64
        by_pair = {(round(r[0], 9), round(r[1], 9)): r[2] for r in rows}
        assert abs(by_pair[(0.0, round(math.pi, 9))] - 1.0) < 1e-12
        assert by_pair[(0.0, 0.0)] is None

    def test_flat_map(self, capsys):
        _, out, _ = run_cli(capsys, "--grid", "64", "metric-map", "--flat")
        doc = json.loads(out)
        values = [r[2] for r in doc["rows"] if r[2] is not None]
        assert all(abs(v - 1.0) < 1e-14 for v in values)

    def test_pullback_map(self, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo(0.0, (), (0.2,)))
        code, out, _ = run_cli(
            capsys, "--grid", "64", "metric-map", "--c", "2.0", "--diffeo", path
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["metric"]["pullback"] is True

    def test_embed_appends_quadric_coordinates(self, capsys):
        code, out, _ = run_cli(capsys, "--grid", "64", "metric-map", "--embed")
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert len(row) == 6
            if row[2] is not None:
                x, y, t = row[3:]
                assert abs(x * x + y * y - t * t - 1.0) < 1e-9

    def test_flat_and_c_conflict(self, capsys):
        code, _, err = run_cli(capsys, "metric-map", "--flat", "--c", "2.0")
        assert code == 2
        assert "error" in err

    def test_embed_needs_bare_curved(self, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo.identity())
        code, _, _ = run_cli(capsys, "metric-map", "--embed", "--diffeo", path)
        assert code == 2
        code, _, _ = run_cli(capsys, "metric-map", "--embed", "--flat")
        assert code == 2
        code, _, _ = run_cli(capsys, "metric-map", "--embed", "--c", "-1.0")
        assert code == 2

    def test_embed_refuses_overflowing_quadric(self, capsys):
        with np.errstate(all="ignore"):
            code, _, err = run_cli(capsys, "--grid", "64", "metric-map", "--embed", "--c", "1e307")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_embed_refuses_grid_before_writing(self, fmt, capsys):
        # Next to the diagonal at grid 2048 the rounding of x^2 + y^2 - t^2
        # exceeds the quadric bound; the refusal comes before any output.
        code, out, err = run_cli(capsys, "--format", fmt, "--grid", "2048", "metric-map", "--embed")
        assert code == 3
        assert out == ""
        assert "2048" in err and "quadric" in err

    def test_csv_masks_with_nan(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "csv", "--grid", "64", "metric-map")
        first = out.splitlines()[1].split(",")
        assert first[0] == "0.0" and first[1] == "0.0"
        assert first[2] == "nan"


class TestCartanCommand:
    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_theta_is_refused(self, theta, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo(0.0, (0.05,), (0.2,)))
        code, out, err = run_cli(capsys, "cartan-estimate", "--diffeo", path, f"--theta={theta}")
        assert (code, out, err) == (3, "", "error: theta must be finite\n")

    def test_second_order_convergence(self, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo(0.0, (0.05,), (0.2,)))
        code, out, _ = run_cli(
            capsys, "--eps0", "0.02", "cartan-estimate", "--diffeo", path,
            "--theta", "0.8",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "cartan-estimate"
        assert len(doc["rows"]) == 3
        assert doc["empirical_order"] > 1.5
        # Errors shrink monotonically through the halvings.
        errs = [r[2] for r in doc["rows"]]
        assert errs[0] > errs[1] > errs[2]


class TestBottThurstonCommand:
    def test_identity_pair(self, tmp_path, capsys):
        a = write_diffeo(tmp_path, CircleDiffeo(0.0, (), (0.2,)), "a.json")
        b = write_diffeo(tmp_path, CircleDiffeo.identity(), "b.json")
        code, out, _ = run_cli(capsys, "bott-thurston", a, b)
        assert code == 0
        assert abs(json.loads(out)["value"]) < 1e-10

    def test_generic_pair_nonzero(self, tmp_path, capsys):
        a = write_diffeo(tmp_path, CircleDiffeo(0.0, (), (0.3,)), "a.json")
        b = write_diffeo(tmp_path, CircleDiffeo(0.0, (0.2,), ()), "b.json")
        _, out, _ = run_cli(capsys, "bott-thurston", a, b)
        assert abs(json.loads(out)["value"]) > 1e-4


class TestOrbitPointCommand:
    def test_emits_loadable_spec(self, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo(0.0, (), (0.2,)))
        code, out, _ = run_cli(capsys, "orbit-point", "--diffeo", path, "--c", "1.5")
        assert code == 0
        point = orbit_point_from_doc(json.loads(out))
        assert point.charge == 1.5

    def test_non_finite_c_is_refused_by_name(self, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo(0.0, (), (0.2,)))
        code, out, err = run_cli(capsys, "orbit-point", "--diffeo", path, "--c", "nan")
        assert (code, out, err) == (3, "", "error: c must be finite\n")

    def test_schema_wins_over_csv(self, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo.identity())
        _, out, _ = run_cli(
            capsys, "--format", "csv", "orbit-point", "--diffeo", path, "--c", "1.0"
        )
        assert json.loads(out)["kind"] == "orbit-point"


class TestExitCodes:
    def test_malformed_spec_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "schwarzian", "--diffeo", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "schwarzian", "--diffeo", "/no/such/file.json")
        assert code == 2

    def test_invalid_diffeo_spec(self, tmp_path, capsys):
        path = tmp_path / "steep.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "kind": "circle-diffeo",
                    "shift": 0.0,
                    "cos": [],
                    "sin": [1.5],
                }
            )
        )
        code, _, err = run_cli(capsys, "schwarzian", "--diffeo", str(path))
        assert code == 3
        assert "slope" in err

    def test_projection_past_the_cap_is_invalid(self, tmp_path, capsys):
        # Two 1100-mode lifts that the slope certificate accepts; their
        # composition needs more nodes than re-projection may sample, which
        # raises ArithmeticError before any output.
        c = 1e-6 / np.arange(1.0, 1101.0)
        alt = np.where(np.arange(1100) % 2, -c, c)
        first = write_diffeo(tmp_path, CircleDiffeo(0.1, alt, c), "first.json")
        second = write_diffeo(tmp_path, CircleDiffeo(-0.2, c, -alt), "second.json")
        code, out, err = run_cli(capsys, "bott-thurston", first, second)
        assert code == 3
        assert out == ""
        assert err == "error: Fourier projection needs 8832 nodes, above the cap of 8192\n"

    def test_bad_grid_flag(self, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo.identity())
        code, _, _ = run_cli(capsys, "--grid", "63", "schwarzian", "--diffeo", path)
        assert code == 2

    @pytest.mark.parametrize("grid", ["65538", "100000000"])
    def test_grid_above_the_bound_is_refused_before_any_table(self, capsys, monkeypatch, grid):
        # A grid past 65536 exits 2 before the kernel builds a table of it.
        monkeypatch.setattr(numerics, "_kernel_pass", None)
        code, out, err = run_cli(capsys, "--grid", grid, "verify", "cocycles")
        assert (code, out) == (2, "")
        assert err == "error: --grid must be even and in [64, 65536]\n"

    @pytest.mark.parametrize("levels", ["65", "1000000000"])
    def test_levels_above_the_bound_are_refused(self, capsys, monkeypatch, levels):
        # Refused before richardson_limit allocates its levels.
        monkeypatch.setattr(hyperboloid, "richardson_limit", None)
        code, out, err = run_cli(capsys, "--levels", levels, "verify", "hessian")
        assert (code, out) == (2, "")
        assert err == "error: --levels must lie in [3, 64]\n"

    def test_negative_seed_is_refused_before_any_draw(self, capsys, monkeypatch):
        # numpy refuses a negative seed with its own ValueError (exit 3).
        monkeypatch.setattr(cli.np.random, "default_rng", None)
        code, out, err = run_cli(capsys, "--seed", "-1", "verify", "ghys")
        assert (code, out) == (2, "")
        assert err == "error: --seed must be a non-negative integer\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("schwarzian", "--diffeo", "SPEC"),
            ("metric-map", "--diffeo", "SPEC"),
            ("cartan-estimate", "--diffeo", "SPEC", "--theta", "0.5"),
            ("bott-thurston", "SPEC", "SPEC"),
            ("orbit-point", "--diffeo", "SPEC", "--c", "1.0"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_vector_field_document_is_a_foreign_kind(self, tmp_path, capsys, argv):
        # No command reads a vector field; such a document is malformed input.
        path = tmp_path / "xi.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "vector-field", "const": 0.7, "cos": [0.1], "sin": []}))
        code, out, err = run_cli(capsys, *(str(path) if arg == "SPEC" else arg for arg in argv))
        assert (code, out) == (2, "")
        assert err == "error: expected kind 'circle-diffeo', got 'vector-field'\n"

    def test_bad_eps0_flag(self, capsys):
        code, _, _ = run_cli(capsys, "--eps0", "1.5", "verify", "ghys")
        assert code == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shift", 10**400),
            ("cos", [10**400]),
            ("cos", ["a"]),
            ("cos", ["0.1"]),
            ("sin", [False]),
            ("schema_version", True),
        ],
        ids=["huge-int-shift", "huge-int-cos", "string-cos", "numeric-string-cos", "bool-sin", "bool-version"],
    )
    def test_malformed_number_in_spec(self, tmp_path, capsys, field, value):
        doc = {"schema_version": 1, "kind": "circle-diffeo", "shift": 0.0, "cos": [0.1], "sin": []}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, field: value}))
        code, _, err = run_cli(capsys, "schwarzian", "--diffeo", str(path))
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_integer_past_the_digit_limit_in_spec(self, tmp_path, capsys):
        # json.load itself refuses to convert an integer of more than 4300 digits.
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "kind": "circle-diffeo", "shift": ' + "9" * 5000 + "}")
        code, _, err = run_cli(capsys, "schwarzian", "--diffeo", str(path))
        assert code == 2
        assert err.startswith("error: invalid JSON")

    def test_unknown_structure_is_usage_error(self):
        with pytest.raises(SerializationError):
            cli.RunConfig(structure_name="bogus")

    def test_structure_choices_come_from_the_registry(self):
        (action,) = [a for a in cli._build_parser()._actions if a.dest == "structure"]
        assert action.choices == tuple(STRUCTURES)
        assert action.default == "torus"

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestOutputFlag:
    def test_writes_file(self, tmp_path, capsys):
        spec = write_diffeo(tmp_path, CircleDiffeo.identity())
        target = tmp_path / "table.json"
        code = cli.main(
            ["--output", str(target), "--grid", "64", "schwarzian", "--diffeo", spec]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["kind"] == "schwarzian-table"

    def test_unwritable_target(self, tmp_path, capsys):
        spec = write_diffeo(tmp_path, CircleDiffeo.identity())
        code = cli.main(
            ["--output", "/no/such/dir/out.json", "schwarzian", "--diffeo", spec]
        )
        capsys.readouterr()
        assert code == 2


class TestConfigEcho:
    def test_header_carries_config(self, tmp_path, capsys):
        path = write_diffeo(tmp_path, CircleDiffeo.identity())
        _, out, _ = run_cli(
            capsys, "--grid", "128", "--seed", "9", "--structure", "line",
            "schwarzian", "--diffeo", path,
        )
        config = json.loads(out)["config"]
        assert config["grid"] == 128
        assert config["seed"] == 9
        assert config["structure"] == "line"


class TestReadmeExamples:
    def test_every_example_line_parses(self):
        text = README.read_text(encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [ln for ln in block.splitlines() if ln.startswith("virasoro ")]
        assert len(lines) >= 8
        parser = cli._build_parser()
        for line in lines:
            # Spec paths such as wobble.json stay placeholders: parsing
            # does not open them.
            argv = shlex.split(line, comments=True)[1:]
            try:
                args = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: {line}")
            assert callable(args.run), line


# -- byte identity against the row-list writers --------------------------------
#
# The reference builds every table as one Python row list (per-point scalar
# ``embed`` for the quadric coordinates) and writes it whole with
# ``json.dump`` or cell by cell with ``csv.writer``: the plain writers whose
# bytes the block-streaming emitter must reproduce.

SPEC_A = CircleDiffeo(0.0, (0.05,), (0.2,))
SPEC_B = CircleDiffeo(0.3, (0.02, -0.01), (0.1, 0.04))


def _ref_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _ref_write(fmt, doc, columns, rows) -> bytes:
    buf = io.StringIO()
    if fmt == "json":
        json.dump(doc, buf, indent=2, sort_keys=True)
        buf.write("\n")
    else:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_ref_cell(v) for v in row])
    return buf.getvalue().encode()


def _ref_metric_rows(grid, variant):
    flat = variant == "flat"
    c = 2.0 if variant == "pullback" else 1.0
    metric = NullMetric.flat() if flat else NullMetric.curved(c)
    if variant == "pullback":
        metric = NullMetric.pullback(metric, SPEC_A)
    theta = circle_grid(grid)
    rows = []
    for th1 in theta:
        off = np.abs(np.sin(0.5 * (th1 - theta))) > _DIAGONAL_GUARD
        values = np.full(theta.size, np.nan)
        values[off] = metric.coefficient(np.full(np.sum(off), th1), theta[off])
        for th2, value, keep in zip(theta, values, off):
            row = [float(th1), float(th2), float(value) if keep else None]
            if variant == "embed":
                if keep:
                    point = embed(th1, th2, c)
                    row.extend((point.x, point.y, point.t))
                else:
                    row.extend((None, None, None))
            rows.append(row)
    return rows


def _ref_metric_map(config, variant, rows):
    doc = cli._header("metric-map", config)
    doc["metric"] = {
        "flat": variant == "flat",
        "c": None if variant == "flat" else (2.0 if variant == "pullback" else 1.0),
        "pullback": variant == "pullback",
    }
    doc["rows"] = rows
    columns = ("theta1", "theta2", "coefficient")
    if variant == "embed":
        columns += ("x", "y", "t")
    return _ref_write(config.fmt, doc, columns, rows)


def _ref_schwarzian(config, variant):
    if variant == "classical":
        q = schwarzian_classical(SPEC_A, config.grid)
    elif variant == "modified":
        q = schwarzian_modified(SPEC_A, config.grid)
    else:
        q = schwarzian_universal(SPEC_A, config.structure, config.grid)
    theta = circle_grid(config.grid)
    values = np.asarray(q.eval(theta), dtype=float)
    doc = cli._header("schwarzian-table", config)
    doc["variant"] = variant
    doc["rows"] = [[float(t), float(v)] for t, v in zip(theta, values)]
    return _ref_write(config.fmt, doc, ("theta", "value"), doc["rows"])


def _ref_verify(config, suite):
    checks = cli._SUITES[suite](config)
    doc = cli._header("verify-report", config)
    doc["suite"] = suite
    doc["checks"] = checks
    doc["passed"] = all(c["passed"] for c in checks)
    rows = [
        (c["name"], c["value"], c["bound"], c["comparison"], c["passed"])
        for c in checks
    ]
    return _ref_write(
        config.fmt, doc, ("name", "value", "bound", "comparison", "passed"), rows
    )


def _ref_cartan(config, theta):
    structure = config.structure
    analytic = float(schwarzian_universal(SPEC_A, structure, config.grid).eval(theta))
    eps_list = [config.eps0, config.eps0 / 2.0, config.eps0 / 4.0]
    rows, errors = [], []
    for eps in eps_list:
        estimate = cartan_schwarzian_estimate(SPEC_A, structure, theta, eps)
        error = abs(estimate - analytic)
        rows.append((float(eps), float(estimate), float(error)))
        errors.append(error)
    slope = np.polyfit(np.log(eps_list), np.log(np.maximum(errors, 1e-300)), 1)[0]
    doc = cli._header("cartan-estimate", config)
    doc["theta"] = float(theta)
    doc["analytic"] = analytic
    doc["empirical_order"] = float(slope)
    doc["rows"] = [list(r) for r in rows]
    return _ref_write(config.fmt, doc, ("eps", "estimate", "abs_error"), rows)


def _ref_bott_thurston(config):
    value = bott_thurston(SPEC_A, SPEC_B, config.grid)
    doc = cli._header("bott-thurston", config)
    doc["value"] = float(value)
    return _ref_write(config.fmt, doc, ("value",), [(float(value),)])


@pytest.fixture
def specs(tmp_path):
    return write_diffeo(tmp_path, SPEC_A, "a.json"), write_diffeo(tmp_path, SPEC_B, "b.json")


def _cli_bytes(tmp_path, grid, fmt, *argv, eps0="0.1"):
    target = tmp_path / "out.txt"
    code = cli.main(
        ["--grid", str(grid), "--format", fmt, "--eps0", eps0,
         "--output", str(target), *argv]
    )
    assert code == 0
    return target.read_bytes()


class TestByteIdentity:
    @pytest.mark.parametrize("grid", [64, 256])
    @pytest.mark.parametrize(
        "variant, formats",
        [
            ("curved", ("json", "csv")),
            ("flat", ("json",)),
            ("pullback", ("json",)),
            ("embed", ("json", "csv")),
        ],
        ids=["curved", "flat", "pullback", "embed"],
    )
    def test_metric_map(self, tmp_path, specs, grid, variant, formats):
        flags = {
            "curved": [],
            "flat": ["--flat"],
            "pullback": ["--c", "2.0", "--diffeo", specs[0]],
            "embed": ["--embed"],
        }[variant]
        rows = _ref_metric_rows(grid, variant)
        for fmt in formats:
            got = _cli_bytes(tmp_path, grid, fmt, "metric-map", *flags)
            config = cli.RunConfig(grid=grid, fmt=fmt)
            assert got == _ref_metric_map(config, variant, rows), fmt

    @pytest.mark.parametrize("grid", [64, 256])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_small_commands(self, tmp_path, specs, grid, fmt):
        config = cli.RunConfig(grid=grid, fmt=fmt)
        for variant in ("classical", "modified", "universal"):
            got = _cli_bytes(
                tmp_path, grid, fmt, "schwarzian", "--diffeo", specs[0], "--variant", variant
            )
            assert got == _ref_schwarzian(config, variant), variant
        got = _cli_bytes(tmp_path, grid, fmt, "verify", "curvature")
        assert got == _ref_verify(config, "curvature")
        got = _cli_bytes(
            tmp_path, grid, fmt, "cartan-estimate", "--diffeo", specs[0], "--theta", "0.8",
            eps0="0.02",
        )
        assert got == _ref_cartan(cli.RunConfig(grid=grid, fmt=fmt, eps0=0.02), 0.8)
        got = _cli_bytes(tmp_path, grid, fmt, "bott-thurston", *specs)
        assert got == _ref_bott_thurston(config)


class TestMemoryCeiling:
    """A streamed table holds one theta1 block at a time. Building the whole
    row list first traces about 76 MB (--embed) and 40 MB (CSV --diffeo) at
    grid 512; streaming stays near 0.5 MB."""

    CAP_MB = 4.0

    def _peak(self, tmp_path, *argv):
        target = tmp_path / "table.out"
        code, peak = traced_peak_mb(
            cli.main, ["--grid", "512", "--output", str(target), *argv]
        )
        assert code == 0
        return peak

    def test_embed_json(self, tmp_path):
        peak = self._peak(tmp_path, "metric-map", "--embed")
        assert peak < self.CAP_MB, f"{peak:.1f} MB"

    def test_csv_pullback(self, tmp_path, specs):
        peak = self._peak(tmp_path, "--format", "csv", "metric-map", "--diffeo", specs[1])
        assert peak < self.CAP_MB, f"{peak:.1f} MB"
