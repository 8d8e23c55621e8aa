import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from layering import module_tree, names_imported_from, package_imports, top_level_names

import numpy as np
import permeameter
from permeameter import (
    CavitySpec,
    FrequencyTrace,
    GeometryFactor,
    Resonance,
    SynthConfig,
    lorentzian_trace,
    parse_touchstone,
    write_touchstone,
)
from permeameter import errors
from permeameter.cli import EXIT_CONFIG, EXIT_OK, EXIT_STATUS, extract_report, main
from permeameter.config import ExtractionOptions, RunConfig, load_config, load_materials
from permeameter.errors import FitFailureError, InvalidGeometryError, NoUsableResonanceError
from permeameter.perturbation import InteractionChoice, geometry_factor
from permeameter.traceio import fit_lorentzian, q_3db

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def alias_of(path, how):
    """`path` itself, or a new hardlink or symlink to it in the same directory."""
    if how == "same":
        return path
    alias = path.with_name(f"{how}.csv")
    (alias.hardlink_to if how == "hardlink" else alias.symlink_to)(path)
    return alias


def lorentzian_file(path, il, right_db=None):
    """A 4001-point Lorentzian (f0 7.5 GHz, Q_L 560) written as Touchstone.

    The sweep spans 20 bandwidths on each side of f0, or on the right
    ends where the skirt is right_db below the peak."""
    f0, q = 7.5e9, 560.0
    right = 20.0 if right_db is None else math.sqrt(10.0 ** (right_db / 10.0) - 1.0) / 2.0
    f = np.linspace(f0 * (1.0 - 20.0 / q), f0 * (1.0 + right / q), 4001)
    path.write_bytes(write_touchstone(FrequencyTrace(f, il / (1.0 + 2j * q * (f - f0) / f0))))
    return str(path)


class TestModes:
    def test_table_rows(self, capsys, config_file):
        cfg = config_file()
        code, out, _ = run(capsys, "--config", str(cfg), "modes", "--max-n", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5  # header + 4 rows
        last = lines[-1].split()
        assert last[0] == "4"
        assert float(last[1]) == pytest.approx(7.532569, abs=1e-3)  # GHz
        assert float(last[2]) == pytest.approx(30.0, abs=1e-6)  # mm
        assert last[-1] == "*"  # even marker

    def test_json_schema(self, capsys, config_file):
        code, out, _ = run(capsys, "--config", str(config_file()), "modes", "--json")
        assert code == 0
        doc = json.loads(out)
        assert {"n", "f_hz", "lambda_g_m", "even"} <= set(doc["modes"][0])

    def test_zero_rows(self, capsys, config_file):
        code, out, _ = run(capsys, "--config", str(config_file()), "modes", "--max-n", "0")
        assert code == 0
        assert len(out.strip().splitlines()) == 1  # header only

    def test_negative_max_n_exit_2(self, capsys, config_file):
        code, out, err = run(capsys, "--config", str(config_file()), "modes", "--max-n", "-1")
        assert (code, out) == (2, "")
        assert "--max-n must be >= 0" in err

    def test_negative_dimension_exit_2(self, capsys, config_file):
        cfg = config_file(cavity={"width_a_mm": -30.0})
        code, _, err = run(capsys, "--config", str(cfg), "modes")
        assert code == 2
        assert "width_a" in err

    def test_missing_config_exit_2(self, capsys, monkeypatch):
        monkeypatch.delenv("PERMEAMETER_CONFIG", raising=False)
        code, _, err = run(capsys, "modes")
        assert code == 2 and "config" in err

    @pytest.mark.parametrize("section, key", [("mode", "n"), ("cavity", "width_a_mm")])
    def test_missing_key_exit_2(self, capsys, config_file, section, key):
        # an integer key is reported missing like any other required key
        path = config_file()
        doc = json.loads(path.read_text())
        del doc[section][key]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "--config", str(path), "modes")
        assert (code, out) == (2, "")
        assert f"missing {section}.{key}" in err

    def test_absent_optional_cavity_keys_take_the_spec_defaults(self, config_file):
        # eps_r 1.0, mu_rs 1 and no vias: the config states no default of its own
        path = config_file()
        doc = json.loads(path.read_text())
        del doc["cavity"]["eps_r"], doc["cavity"]["mu_rs"]
        path.write_text(json.dumps(doc))
        cavity = load_config(path).cavity
        assert cavity.eps_r == 1.0
        assert cavity == CavitySpec(cavity.width_a, cavity.length_l, cavity.height_h)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "config must be a JSON object"),
            ('{"cavity": {}, "mode": {"n": 4}}', "missing config section 'sample'"),
            ('{"cavity": ', "config is not valid JSON"),
            (None, "cannot read config"),
        ],
    )
    def test_unusable_config_document_exit_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "config.json"  # left unwritten when text is None
        if text is not None:
            path.write_text(text)
        code, out, err = run(capsys, "--config", str(path), "modes")
        assert (code, out) == (2, "")
        assert message in err

    def test_env_var_config(self, capsys, config_file, monkeypatch):
        monkeypatch.setenv("PERMEAMETER_CONFIG", str(config_file()))
        code, out, _ = run(capsys, "modes", "--max-n", "2")
        assert code == 0 and len(out.strip().splitlines()) == 3


class TestSynth:
    def test_writes_roster_files(self, capsys, tmp_path, config_file, materials_file):
        out_dir = tmp_path / "camp"
        code, out, _ = run(
            capsys, "--config", str(config_file()), "synth",
            "--materials", str(materials_file()), "--out-dir", str(out_dir),
        )
        assert code == 0
        files = sorted(p.name for p in out_dir.glob("*.s2p"))
        assert len(files) == 7
        assert "campaign_empty.s2p" in files and "campaign_U.s2p" in files

    def test_deterministic_bytes(self, capsys, tmp_path, config_file, materials_file):
        cfg, mats = str(config_file()), str(materials_file())
        blobs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            code, _, _ = run(capsys, "--config", cfg, "synth",
                             "--materials", mats, "--out-dir", str(out_dir))
            assert code == 0
            blobs.append((out_dir / "campaign_X.s2p").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_override_changes_noisy_output(
        self, capsys, tmp_path, config_file, materials_file
    ):
        cfg = str(config_file(synth={"noise_floor_db": -70.0}))
        mats = str(materials_file())
        blobs = []
        for seed, sub in ((1, "a"), (2, "b")):
            out_dir = tmp_path / sub
            code, _, _ = run(capsys, "--config", cfg, "--seed", str(seed), "synth",
                             "--materials", mats, "--out-dir", str(out_dir))
            assert code == 0
            blobs.append((out_dir / "campaign_X.s2p").read_bytes())
        assert blobs[0] != blobs[1]

    def test_failing_roster_writes_no_files(
        self, capsys, tmp_path, config_file, materials_file
    ):
        # on a lossy substrate (mu_rs = 1 - 2j) the middle material, lossless
        # with a huge mu', takes away more loss than the cavity has: the
        # model predicts a Q that is not positive
        roster = [
            {"name": "U", "mu_re": 1.2, "tan_dm": 0.04},
            {"name": "huge", "mu_re": 1e4},
            {"name": "X", "mu_re": 1.5, "tan_dm": 0.05},
        ]
        out_dir = tmp_path / "camp"
        code, _, err = run(
            capsys, "--config", str(config_file(cavity={"mu_rs": [1.0, -2.0]})), "synth",
            "--materials", str(materials_file(roster)), "--out-dir", str(out_dir),
        )
        assert (code, err) == (2, "error: material 'huge': predicted unloaded Q is not positive\n")
        assert list(out_dir.glob("*.s2p")) == []

    def test_loaded_sweep_reaching_zero_hz_exit_2_names_the_material(
        self, capsys, tmp_path, config_file, materials_file
    ):
        # Q_L ~ 6: re-centred, the 20 bandwidths below its f0 reach below 0 Hz
        roster = [
            {"name": "U", "mu_re": 1.2, "tan_dm": 0.04},
            {"name": "lossy", "mu_re": 1.5, "mu_im": 1e4},
        ]
        out_dir = tmp_path / "camp"
        code, out, err = run(
            capsys, "--config", str(config_file()), "synth",
            "--materials", str(materials_file(roster)), "--out-dir", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert "material 'lossy'" in err and "above 0 Hz" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", ["Ni/Zn", "a\u0000b"], ids=["slash", "nul"])
    def test_name_that_cannot_be_a_file_name_writes_no_files(
        self, capsys, tmp_path, config_file, materials_file, name
    ):
        roster = [{"name": "U", "mu_re": 1.2, "tan_dm": 0.04}, {"name": name, "mu_re": 1.5}]
        out_dir = tmp_path / "camp"
        code, out, err = run(
            capsys, "--config", str(config_file()), "synth",
            "--materials", str(materials_file(roster)), "--out-dir", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert repr(name) in err
        assert not out_dir.exists()

    def test_memory_does_not_grow_with_the_roster(self, tmp_path, config_file, materials_file):
        # each trace is written as it is rendered and then dropped: 40 materials
        # at 4001 points would hold 38 more traces of 24 B a point (4001
        # frequencies and 4001 complex S21) than 2 do if rendered all at once
        trace_bytes = 4001 * 24
        cfg = str(config_file())
        assert load_config(cfg).synth.n_points == 4001
        peaks = []
        for count in (2, 40):
            mats = str(materials_file([
                {"name": f"M{i}", "mu_re": 1.2 + 0.05 * (i % 11), "tan_dm": 0.01 + 0.02 * (i % 7)}
                for i in range(count)
            ]))
            argv = ["--config", cfg, "synth", "--materials", mats, "--out-dir", str(tmp_path / str(count))]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(list((tmp_path / str(count)).glob("*.s2p"))) == count + 1
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 10 * trace_bytes, f"peaks {peaks[0] / 1e6:.2f}, {peaks[1] / 1e6:.2f} MB"

    def test_unwritable_out_dir_exit_2(self, capsys, tmp_path, config_file, materials_file):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code, _, err = run(
            capsys, "--config", str(config_file()), "synth",
            "--materials", str(materials_file()), "--out-dir", str(blocker),
        )
        assert code == 2 and "blocked" in err


class TestExtract:
    @pytest.fixture
    def campaign(self, capsys, tmp_path, config_file, materials_file):
        out_dir = tmp_path / "camp"
        code, _, _ = run(
            capsys, "--config", str(config_file()), "synth",
            "--materials", str(materials_file()), "--out-dir", str(out_dir),
        )
        assert code == 0
        return out_dir

    def test_sample_x_recovery(self, capsys, config_file, campaign):
        code, out, _ = run(
            capsys, "--config", str(config_file()), "--json", "extract",
            str(campaign / "campaign_empty.s2p"), str(campaign / "campaign_X.s2p"),
        )
        assert code == 0
        pair = json.loads(out)["pairs"][0]
        assert pair["mu_re"] == pytest.approx(1.5, rel=0.01)
        assert pair["tan_dm"] == pytest.approx(0.05, rel=0.05)
        assert pair["g_provenance"] == "quadrature-transverse-hz"
        assert pair["mu_re_conventional"] is not None
        assert {"f0_hz", "q_loaded", "q_unloaded", "il_linear", "method"} <= set(pair["empty"])

    def test_identical_files_give_substrate(self, capsys, config_file, campaign):
        empty = str(campaign / "campaign_empty.s2p")
        code, out, _ = run(capsys, "--config", str(config_file()), "--json",
                           "extract", empty, empty)
        assert code == 0
        pair = json.loads(out)["pairs"][0]
        assert pair["mu_re"] == pytest.approx(1.0, abs=1e-9)
        assert pair["tan_dm"] == pytest.approx(0.0, abs=1e-9)

    def test_identical_files_report_a_positive_zero_loss(self, capsys, config_file, campaign):
        # a zero loss is +0.0: JSON prints 0.0, not -0.0, and the text 0.000000
        empty = str(campaign / "campaign_empty.s2p")
        code, out, _ = run(capsys, "--config", str(config_file()), "--json",
                           "extract", empty, empty)
        assert code == 0
        pair = json.loads(out)["pairs"][0]
        for key in ("mu_im", "tan_dm", "mu_im_conventional", "tan_dm_conventional"):
            assert math.copysign(1.0, pair[key]) == 1.0, key
        code, out, _ = run(capsys, "--config", str(config_file()), "extract", empty, empty)
        assert code == 0
        assert out.count("tan_dm = 0.000000") == 2 and "-0.0" not in out

    def test_human_report(self, capsys, config_file, campaign):
        code, out, _ = run(
            capsys, "--config", str(config_file()), "extract",
            str(campaign / "campaign_empty.s2p"), str(campaign / "campaign_X.s2p"),
        )
        assert code == 0
        assert "modified" in out and "conventional" in out and "g " in out

    def test_truncated_file_exit_2(self, capsys, tmp_path, config_file, campaign):
        mangled = tmp_path / "broken.s2p"
        payload = (campaign / "campaign_X.s2p").read_text().splitlines()
        payload[40] = "7.5 0 0"  # wrong column count on 1-based line 41
        mangled.write_text("\n".join(payload))
        code, _, err = run(
            capsys, "--config", str(config_file()), "extract",
            str(campaign / "campaign_empty.s2p"), str(mangled),
        )
        assert code == 2 and "line 41" in err

    def test_no_pairable_resonance_exit_3(self, capsys, tmp_path, config_file, campaign):
        res = Resonance.from_loaded(5.0e9, 560.0, 0.3, "model")
        cfg = SynthConfig(4.5e9, 5.5e9, 1001, None, 0, 0.3)
        far = tmp_path / "far.s2p"
        far.write_bytes(write_touchstone(lorentzian_trace(res, cfg)))
        code, _, err = run(
            capsys, "--config", str(config_file()), "extract",
            str(campaign / "campaign_empty.s2p"), str(far),
        )
        assert code == 3

    def test_flat_empty_trace_exit_3(self, capsys, tmp_path, config_file, campaign):
        flat = tmp_path / "flat.s2p"
        f = np.linspace(7.0e9, 8.0e9, 1001)
        flat.write_bytes(write_touchstone(FrequencyTrace(f, np.full(f.shape, 0.3 + 0j))))
        code, _, err = run(
            capsys, "--config", str(config_file()), "extract",
            str(flat), str(campaign / "campaign_X.s2p"),
        )
        assert code == 3
        assert "found 0 empty / 1 loaded" in err

    def test_coarse_grid_falls_back_to_three_db(
        self, capsys, tmp_path, config_file, materials_file
    ):
        # 101 points over 200 bandwidths leave too few samples in the fit
        # window, so both resonances come from the bandwidth method
        cfg = str(config_file(synth={"n_points": 101, "span_bandwidths": 200}))
        out_dir = tmp_path / "coarse"
        code, _, err = run(capsys, "--config", cfg, "synth",
                           "--materials", str(materials_file()), "--out-dir", str(out_dir))
        assert code == 0, err
        code, out, err = run(
            capsys, "--config", cfg, "--json", "extract",
            str(out_dir / "campaign_empty.s2p"), str(out_dir / "campaign_X.s2p"),
        )
        assert code == 0, err
        pair = json.loads(out)["pairs"][0]
        assert pair["empty"]["method"] == pair["loaded"]["method"] == "three-db"

    def test_failed_conventional_inversion_reported_empty(
        self, capsys, monkeypatch, tmp_path, config_file, materials_file, campaign
    ):
        # a degenerate conventional factor fails its inversion; the
        # modified result still stands and the conventional one is blank
        monkeypatch.setattr(
            permeameter.config, "geometry_factor_conventional",
            lambda *args: GeometryFactor(0.0, "conventional"),
        )
        cfg = str(config_file())
        files = str(campaign / "campaign_empty.s2p"), str(campaign / "campaign_X.s2p")
        code, out, err = run(capsys, "--config", cfg, "--json", "extract", *files)
        assert code == 0, err
        pair = json.loads(out)["pairs"][0]
        for part in ("mu_re", "mu_im", "tan_dm"):
            assert pair[f"{part}_conventional"] is None
        assert pair["mu_re"] == pytest.approx(1.5, rel=0.01)
        code, out, err = run(capsys, "--config", cfg, "extract", *files)
        assert code == 0, err
        assert "  conventional: (inversion failed)\n" in out
        out_csv = tmp_path / "t.csv"
        code, _, err = run(capsys, "--config", cfg, "compare",
                           "--materials", str(materials_file()), "--out-csv", str(out_csv))
        assert code == 0, err
        for line in out_csv.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[2] == cells[5] == ""
            assert cells[3] and cells[6]

    def test_unphysical_exit_4(self, capsys, tmp_path, config_file, campaign):
        # resonance 5% above empty pairs fine but implies mu_re < 0
        empty_trace = parse_touchstone((campaign / "campaign_empty.s2p").read_bytes())
        f_up = 7.9e9
        res = Resonance.from_loaded(f_up, 560.0, 0.3, "model")
        cfg = SynthConfig(f_up - 0.3e9, f_up + 0.3e9, 1001, None, 0, 0.3)
        upshift = tmp_path / "upshift.s2p"
        upshift.write_bytes(write_touchstone(lorentzian_trace(res, cfg)))
        code, _, err = run(
            capsys, "--config", str(config_file()), "extract",
            str(campaign / "campaign_empty.s2p"), str(upshift),
        )
        assert code == 4 and "mu_re" in err

    def test_missing_half_power_crossing_exit_3(self, capsys, tmp_path, config_file):
        # the right skirt ends 3.005 dB down: the detector admits the peak,
        # whose prominence is far above 10 sigma of the noiseless skirt, but
        # the 3-dB reading needs 3.0103 dB
        trace = lorentzian_file(tmp_path / "short.s2p", 0.3, right_db=3.005)
        cfg = str(config_file(extraction={"q_method": "three-db"}))
        code, out, err = run(capsys, "--config", cfg, "extract", trace, trace)
        assert (code, out, err) == (3, "", "error: no half-power crossing on the right side\n")
        # the fit starts from a crude window instead and reads the Q
        code, _, err = run(capsys, "--config", str(config_file()), "extract", trace, trace)
        assert code == 0, err

    @pytest.mark.parametrize("q_method", ["lorentzian-fit", "three-db"])
    def test_net_gain_exit_3(self, capsys, tmp_path, config_file, q_method):
        trace = lorentzian_file(tmp_path / "gain.s2p", 1.2)
        cfg = str(config_file(extraction={"q_method": q_method}))
        code, out, err = run(capsys, "--config", cfg, "extract", trace, trace)
        assert (code, out) == (3, "")
        assert err == "error: il_linear = 1.2 >= 1; trace shows net gain, unloading undefined\n"

    @pytest.mark.parametrize("q_method", ["lorentzian-fit", "three-db"])
    def test_near_critical_warning_one_line_per_message(self, capsys, tmp_path, config_file, q_method):
        # the fit reads the 3-dB Q as its start as well, so lorentzian-fit
        # warns twice per trace; a second call prints its line again
        trace = lorentzian_file(tmp_path / "critical.s2p", 0.95)
        cfg = str(config_file(extraction={"q_method": q_method}))
        for _ in range(2):
            code, out, err = run(capsys, "--config", cfg, "extract", trace, trace)
            assert code == 0 and "pair 1:" in out
            assert err == (
                "warning: il_linear = 0.95 is near critical coupling; "
                "unloaded Q is poorly conditioned\n"
            )

    @pytest.mark.parametrize("line", [2, 3])
    def test_overflowing_magnitude_exit_2_names_its_line(self, tmp_path, config_file, line):
        # two finite RI parts whose |S21| overflows; read into a trace, the
        # infinite sample on line 3 was a maximum that crashed the peak search
        rows = ["# HZ S RI R 50"] + [f"{k}e9 0 0 0.1 0 0 0 0 0" for k in (1, 2, 3)]
        rows[line - 1] = rows[line - 1].replace("0.1 0", "1.5e308 1.5e308", 1)
        loaded = tmp_path / "overflow.s2p"
        loaded.write_text("\n".join(rows) + "\n")
        empty = lorentzian_file(tmp_path / "empty.s2p", 0.3)
        env = {**os.environ, "PYTHONPATH": str(Path(permeameter.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "permeameter.cli", "--config", str(config_file()), "extract", empty, str(loaded)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr == f"error: line {line}: |S| overflows\n"


class TestCompare:
    def test_csv_table(self, capsys, tmp_path, config_file, materials_file):
        out_csv = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "--config", str(config_file()), "compare",
            "--materials", str(materials_file()), "--out-csv", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == (
            "material,mu_re_actual,mu_re_conventional,mu_re_modified,"
            "tan_dm_actual,tan_dm_conventional,tan_dm_modified,note"
        )
        assert len(lines) == 7
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert float(rows["X"][3]) == pytest.approx(1.5, rel=0.01)
        assert "anomalous" in rows["Y"][7]

    def test_idempotent_bytes(self, capsys, tmp_path, config_file, materials_file):
        cfg, mats = str(config_file()), str(materials_file())
        payloads = []
        for name in ("one.csv", "two.csv"):
            out_csv = tmp_path / name
            code, _, _ = run(capsys, "--config", cfg, "compare",
                             "--materials", mats, "--out-csv", str(out_csv))
            assert code == 0
            payloads.append(out_csv.read_bytes())
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize(
        "noise, q_method",
        [(None, "lorentzian-fit"), (-90.0, "lorentzian-fit"), (None, "three-db")],
        ids=["None", "-90.0", "None-three-db"],
    )
    def test_rows_match_extract_on_synth_files(
        self, capsys, tmp_path, config_file, materials_file, noise, q_method
    ):
        # compare extracts in memory; the numbers must be those of the
        # Touchstone files that synth writes for the same config
        cfg = str(config_file(synth={"noise_floor_db": noise}, extraction={"q_method": q_method}))
        mats = str(materials_file())
        code, out, _ = run(capsys, "--config", cfg, "--json", "compare",
                           "--materials", mats, "--out-csv", str(tmp_path / "t.csv"))
        assert code == 0
        rows = json.loads(out)["rows"]
        header = (tmp_path / "t.csv").read_text().splitlines()[0].split(",")
        assert all(list(row) == header for row in rows)
        out_dir = tmp_path / "camp"
        code, _, _ = run(capsys, "--config", cfg, "synth",
                         "--materials", mats, "--out-dir", str(out_dir))
        assert code == 0
        assert len(rows) == 6
        for row in rows:
            code, out, _ = run(
                capsys, "--config", cfg, "--json", "extract",
                str(out_dir / "campaign_empty.s2p"),
                str(out_dir / f"campaign_{row['material']}.s2p"),
            )
            assert code == 0
            pair = json.loads(out)["pairs"][0]
            assert row["mu_re_modified"] == pair["mu_re"]
            assert row["tan_dm_modified"] == pair["tan_dm"]

    @pytest.mark.parametrize("span", [40.0, 6.0])
    @pytest.mark.parametrize("interaction", ["axial-hx", "both-components"])
    def test_broad_loaded_resonance_gets_its_own_sweep(
        self, capsys, tmp_path, config_file, materials_file, interaction, span
    ):
        # g ~ 0.032: lossy W (Q_L ~ 110) would lack the 3-bandwidth margin on
        # the empty trace's grid; at span_bandwidths 6 every trace has
        # exactly that margin, and rounding must not fail it
        cfg = str(config_file(extraction={"interaction": interaction}, synth={"span_bandwidths": span}))
        code, out, err = run(capsys, "--config", cfg, "--json", "compare",
                             "--materials", str(materials_file()),
                             "--out-csv", str(tmp_path / "t.csv"))
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert len(rows) == 6
        for row in rows:
            assert row["mu_re_modified"] == pytest.approx(row["mu_re_actual"], rel=1e-6)
            assert row["tan_dm_modified"] == pytest.approx(row["tan_dm_actual"], rel=1e-6)

    def test_per_roster_work_runs_once(
        self, capsys, monkeypatch, tmp_path, config_file, materials_file
    ):
        # compare_rows extracts the empty trace once and evaluates each
        # geometry factor once, for synthesis and extraction alike, for the
        # 6 materials; one extract evaluates each factor once too
        cfg, mats = str(config_file()), str(materials_file())
        code, _, err = run(
            capsys, "--config", cfg, "synth", "--materials", mats, "--out-dir", str(tmp_path)
        )
        assert code == 0, err
        calls = {}
        for module, name in [
            (permeameter.cli, "find_resonances"),
            (permeameter.cli, "fit_lorentzian"),
            (permeameter.perturbation, "sample_energy_quadrature"),
            (permeameter.config, "geometry_factor_conventional"),
        ]:
            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        code, _, err = run(
            capsys, "--config", cfg, "compare",
            "--materials", mats, "--out-csv", str(tmp_path / "t.csv"),
        )
        assert code == 0, err
        assert calls == {
            "find_resonances": 7,
            "fit_lorentzian": 7,
            "sample_energy_quadrature": 1,
            "geometry_factor_conventional": 1,
        }
        calls.clear()
        code, _, err = run(
            capsys, "--config", cfg, "extract",
            str(tmp_path / "campaign_empty.s2p"), str(tmp_path / "campaign_X.s2p"),
        )
        assert code == 0, err
        assert calls == {
            "find_resonances": 2,
            "fit_lorentzian": 2,
            "sample_energy_quadrature": 1,
            "geometry_factor_conventional": 1,
        }
        # at a -60 dB floor each trace still shows one peak, so one fit each
        # (a 3 dB prominence gate in dB fitted ~15 noise maxima per trace)
        noisy = tmp_path / "noisy"
        cfg = str(config_file(synth={"noise_floor_db": -60.0}))
        code, _, err = run(capsys, "--config", cfg, "synth", "--materials", mats, "--out-dir", str(noisy))
        assert code == 0, err
        calls.clear()
        code, _, err = run(
            capsys, "--config", cfg, "extract",
            str(noisy / "campaign_empty.s2p"), str(noisy / "campaign_X.s2p"),
        )
        assert calls == {
            "find_resonances": 2,
            "fit_lorentzian": 2,
            "sample_energy_quadrature": 1,
            "geometry_factor_conventional": 1,
        }
        assert code == 0, err

    def test_memory_does_not_grow_with_the_roster(self, config_file, materials_file):
        # each trace is extracted as it is rendered and only its row is kept:
        # 200 materials at 4001 points would hold 201 traces of 24 B a point
        # (4001 frequencies and 4001 complex S21) if rendered all at once
        n_points, trace_bytes = 4001, 4001 * 24
        cfg = load_config(config_file())
        assert cfg.synth.n_points == n_points
        roster = load_materials(materials_file([
            {"name": f"M{i}", "mu_re": 1.2 + 0.05 * (i % 11), "tan_dm": 0.01 + 0.02 * (i % 7)}
            for i in range(200)
        ]))
        tracemalloc.start()
        try:
            rows = permeameter.cli.compare_rows(cfg, roster)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 200
        assert peak < 16 * trace_bytes, f"peak {peak / 1e6:.2f} MB"

    def test_empty_roster_header_only(self, capsys, tmp_path, config_file, materials_file):
        out_csv = tmp_path / "empty.csv"
        code, _, _ = run(
            capsys, "--config", str(config_file()), "compare",
            "--materials", str(materials_file(materials=[])), "--out-csv", str(out_csv),
        )
        assert code == 0
        assert out_csv.read_text().splitlines() == [
            "material,mu_re_actual,mu_re_conventional,mu_re_modified,"
            "tan_dm_actual,tan_dm_conventional,tan_dm_modified,note"
        ]

    def test_fit_failure_without_fallback_exit_3(
        self, capsys, monkeypatch, tmp_path, config_file, materials_file
    ):
        def failing_fit(*args, **kwargs):
            raise FitFailureError("no curvature in the fit window", None)

        monkeypatch.setattr(permeameter.cli, "fit_lorentzian", failing_fit)
        code, out, err = run(
            capsys, "--config", str(config_file()), "compare",
            "--materials", str(materials_file()), "--out-csv", str(tmp_path / "t.csv"),
        )
        assert (code, out) == (3, "")
        assert err == "error: resonance fit failed: no curvature in the fit window\n"

    def test_roster_entry_given_by_mu_im(self, capsys, tmp_path, config_file, materials_file):
        roster = [{"name": "M", "mu_re": 1.5, "mu_im": 0.075}]
        code, out, err = run(
            capsys, "--config", str(config_file()), "--json", "compare",
            "--materials", str(materials_file(roster)), "--out-csv", str(tmp_path / "t.csv"),
        )
        assert code == 0, err
        (row,) = json.loads(out)["rows"]
        assert row["tan_dm_actual"] == pytest.approx(0.05, rel=1e-12)
        assert row["mu_re_modified"] == pytest.approx(1.5, rel=1e-6)
        assert row["tan_dm_modified"] == pytest.approx(0.05, rel=1e-6)

    def test_inversion_is_bit_exact(self, capsys, tmp_path, config_file, materials_file):
        # pins the last bit of the inversion: building the shift as
        # complex(re, im) instead of re + 1j * im moves it by 1 ulp (...526)
        code, out, err = run(
            capsys, "--config", str(config_file(mode={"n": 2})), "--json", "compare",
            "--materials", str(materials_file()), "--out-csv", str(tmp_path / "t.csv"),
        )
        assert code == 0, err
        rows = {row["material"]: row for row in json.loads(out)["rows"]}
        assert rows["U"]["mu_re_modified"] == 1.2000000000091524

    @pytest.mark.parametrize("alias", ["same", "hardlink", "symlink"])
    def test_out_csv_same_as_materials_exit_2(self, capsys, config_file, materials_file, alias):
        mats = materials_file()
        before = mats.read_bytes()
        code, out, err = run(capsys, "--config", str(config_file()), "compare",
                             "--materials", str(mats), "--out-csv", str(alias_of(mats, alias)))
        assert (code, out) == (2, "")
        assert "--out-csv must differ from --materials" in err
        assert mats.read_bytes() == before

    @pytest.mark.parametrize("alias", ["same", "hardlink", "symlink"])
    @pytest.mark.parametrize("given", ["flag", "env"])
    def test_out_csv_same_as_config_exit_2(
        self, capsys, monkeypatch, config_file, materials_file, given, alias
    ):
        config = config_file()
        before = config.read_bytes()
        if given == "env":
            monkeypatch.setenv("PERMEAMETER_CONFIG", str(config))
        flags = ["--config", str(config)] if given == "flag" else []
        code, out, err = run(capsys, *flags, "compare",
                             "--materials", str(materials_file()), "--out-csv", str(alias_of(config, alias)))
        assert (code, out) == (2, "")
        assert "--out-csv must differ from the config file" in err
        assert config.read_bytes() == before

    def test_unwritable_out_csv_exit_2(self, capsys, tmp_path, config_file, materials_file):
        out_csv = tmp_path / "no-such-dir" / "t.csv"
        code, out, err = run(capsys, "--config", str(config_file()), "compare",
                             "--materials", str(materials_file()), "--out-csv", str(out_csv))
        assert (code, out) == (2, "")
        assert f"cannot write {str(out_csv)!r}" in err

    def test_bad_materials_exit_2(self, capsys, tmp_path, config_file):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no": "materials"}')
        code, _, err = run(
            capsys, "--config", str(config_file()), "compare",
            "--materials", str(bad), "--out-csv", str(tmp_path / "x.csv"),
        )
        assert code == 2


class TestRunConfigFactors:
    """A RunConfig computes its geometry factors on first use and keeps
    them on itself: a series of pairs reuses them, and no other config
    object, equal or not, sees them."""

    @pytest.fixture
    def pair(self, capsys, tmp_path, config_file, materials_file):
        """The config path and the empty and sample X traces its synth writes, in memory."""
        path = config_file()
        out_dir = tmp_path / "camp"
        code, _, err = run(
            capsys, "--config", str(path), "synth",
            "--materials", str(materials_file()), "--out-dir", str(out_dir),
        )
        assert code == 0, err
        traces = [parse_touchstone((out_dir / f"campaign_{label}.s2p").read_bytes()) for label in ("empty", "X")]
        return path, *traces

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of the two g routes, at the lookup sites test_per_roster_work_runs_once patches."""
        calls = {"sample_energy_quadrature": 0, "geometry_factor_conventional": 0}
        for module, name in [
            (permeameter.perturbation, "sample_energy_quadrature"),
            (permeameter.config, "geometry_factor_conventional"),
        ]:
            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    def test_a_series_of_pairs_integrates_g_once(self, pair, calls):
        path, empty, loaded = pair
        cfg = load_config(path)
        reports = [extract_report(cfg, empty, loaded) for _ in range(3)]
        assert calls == {"sample_energy_quadrature": 1, "geometry_factor_conventional": 1}
        assert reports[0] == reports[1] == reports[2]

    def test_replaced_config_computes_its_own_g(self, pair, calls):
        path, empty, loaded = pair
        cfg = load_config(path)
        extract_report(cfg, empty, loaded)
        axial = replace(cfg, extraction=replace(cfg.extraction, interaction="axial-hx"))
        report = extract_report(axial, empty, loaded)
        extract_report(cfg, empty, loaded)  # cfg kept its own
        assert calls == {"sample_energy_quadrature": 2, "geometry_factor_conventional": 2}
        fresh = geometry_factor(cfg.cavity, cfg.sample, cfg.mode, "quadrature", InteractionChoice.AXIAL_HX)
        entry = report["pairs"][0]
        assert entry["g_value"].hex() == fresh.value.hex()
        assert entry["g_provenance"] == fresh.provenance == "quadrature-axial-hx"

    def test_geometry_error_is_raised_again_not_kept(self, pair, calls):
        path, empty, loaded = pair
        cfg = load_config(path)
        extract_report(cfg, empty, loaded)
        # built directly: load_config rejects a bar thicker than the cavity
        thick = RunConfig(cfg.cavity, replace(cfg.sample, thickness=2 * cfg.cavity.height_h), cfg.mode)
        for _ in range(2):
            with pytest.raises(InvalidGeometryError, match="thickness exceeds height_h"):
                extract_report(thick, empty, loaded)
        assert calls["sample_energy_quadrature"] == 3

    def test_sweep_is_kept_and_a_replaced_seed_gets_its_own(self, config_file):
        # main's --seed replaces the synth section, and the new config's sweep reads it
        cfg = load_config(config_file())
        assert cfg.sweep is cfg.sweep
        seeded = replace(cfg, synth=replace(cfg.synth, seed=7))
        assert cfg.synth.seed != 7
        assert (seeded.sweep[1].seed, cfg.sweep[1].seed) == (7, cfg.synth.seed)
        assert seeded.sweep[0] == cfg.sweep[0]

    def test_kept_factors_leave_equality_hash_and_repr_alone(self, config_file):
        path = config_file()
        cfg = load_config(path)
        before = hash(cfg), repr(cfg)
        factors = cfg.factors
        fresh = load_config(path)
        assert cfg == fresh
        assert (hash(cfg), repr(cfg)) == before == (hash(fresh), repr(fresh))
        assert cfg.factors is factors
        assert fresh.factors == factors and fresh.factors is not factors


class TestQuadcheck:
    def test_report_and_exit_0(self, capsys, config_file):
        code, out, _ = run(capsys, "--config", str(config_file()), "--json", "quadcheck")
        assert code == 0
        doc = json.loads(out)
        assert doc["g_printed"] == pytest.approx(1.4786801609189932e-3, rel=1e-9)
        for choice in ("axial-hx", "transverse-hz", "both-components"):
            assert doc[f"deviation_derived_vs_quadrature_{choice}"] < 1e-7
        # printed-form deviation is reported, not asserted small
        assert "deviation_printed_vs_derived_transverse-hz" in doc

    def test_human_output(self, capsys, config_file):
        code, out, _ = run(capsys, "--config", str(config_file()), "quadcheck")
        assert code == 0
        assert "g_printed" in out and "deviation" in out

    def test_odd_mode_printed_not_applicable(self, capsys, config_file):
        cfg = str(config_file(mode={"n": 3}))
        code, out, _ = run(capsys, "--config", cfg, "--json", "quadcheck")
        assert code == 0
        doc = json.loads(out)
        assert doc["g_printed"] is None
        assert doc["deviation_printed_vs_derived_transverse-hz"] is None
        for choice in ("axial-hx", "transverse-hz", "both-components"):
            assert doc[f"g_derived_{choice}"] > 0
            assert doc[f"deviation_derived_vs_quadrature_{choice}"] < 1e-7
        code, out, _ = run(capsys, "--config", cfg, "quadcheck")
        assert code == 0
        assert out.count("n/a") == 2

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize(
        "cavity", [{}, {"via_diameter_d_mm": 1.0, "via_pitch_p_mm": 2.0}], ids=["base", "via-fence"]
    )
    def test_routes_match_geometry_factor_bit_for_bit(self, capsys, config_file, cavity, n):
        # the report calls each route by name, extraction and synthesis go
        # through geometry_factor: the two must not drift apart
        path = config_file(cavity=cavity, mode={"n": n})
        code, out, _ = run(capsys, "--config", str(path), "--json", "quadcheck")
        assert code == 0
        doc, cfg = json.loads(out), load_config(path)
        for choice in InteractionChoice:
            for model in ("derived", "quadrature"):
                g = geometry_factor(
                    cfg.cavity, cfg.sample, cfg.mode, model, choice, cfg.extraction.cells_per_axis
                )
                assert doc[f"g_{model}_{choice.value}"] == g.value

    def test_sample_shrink_scaling(self, capsys, config_file):
        big = config_file()
        code, out_big, _ = run(capsys, "--config", str(big), "--json", "quadcheck")
        doc_big = json.loads(out_big)
        small = config_file(
            sample={"extent_x_l1_mm": 1.0, "extent_z_a1_mm": 0.2, "thickness_mm": 1.57}
        )
        code, out_small, _ = run(capsys, "--config", str(small), "--json", "quadcheck")
        doc_small = json.loads(out_small)
        # volume term is exactly quadratic in the two shrunk extents
        assert doc_big["g_conventional"] / doc_small["g_conventional"] == pytest.approx(
            100.0, rel=1e-9
        )
        # volume-dominated routes shrink near 100x; the (1 - sinc)
        # product routes collapse quadratically faster
        assert doc_big["g_derived_axial-hx"] / doc_small["g_derived_axial-hx"] == (
            pytest.approx(100.0, rel=0.15)
        )
        for key in ("g_printed", "g_derived_transverse-hz"):
            assert doc_big[key] / doc_small[key] > 1000.0


@pytest.mark.parametrize(
    "overrides, roster, key",
    [
        ({"cavity": {"eps_r": "x"}}, None, "cavity.eps_r"),
        ({"extraction": {"cells_per_axis": "abc"}}, None, "extraction.cells_per_axis"),
        ({"synth": {"n_points": "x"}}, None, "synth.n_points"),
        ({"synth": {"seed": 1.7}}, None, "synth.seed"),
        ({"synth": {"noise_floor_db": True}}, None, "synth.noise_floor_db"),
        (
            {"cavity": {"via_diameter_d_mm": "0.5", "via_pitch_p_mm": 1.0}},
            None,
            "cavity.via_diameter_d_mm",
        ),
        ({"mode": [4]}, None, "'mode'"),
        ({}, [{"name": "U", "mu_re": "1.5"}], "materials[0].mu_re"),
        # Python's json reads NaN and Infinity; a number must be finite
        ({"cavity": {"length_l_mm": float("inf")}}, None, "cavity.length_l_mm"),
        ({"synth": {"q0_empty": float("nan")}}, None, "synth.q0_empty"),
        ({"synth": {"noise_floor_db": float("-inf")}}, None, "synth.noise_floor_db"),
        ({"cavity": {"mu_rs": [1.0, float("nan")]}}, None, "cavity.mu_rs"),
        ({"cavity": {"eps_r": 10**400}}, None, "cavity.eps_r"),  # beyond the float range
        ({}, [{"name": "U", "mu_re": float("nan")}], "materials[0].mu_re"),
        ({"extraction": {"interaction": "radial"}}, None, "extraction.interaction"),
        ({"extraction": {"q_method": "fwhm"}}, None, "extraction.q_method"),
        ({"extraction": {"model": "exact"}}, None, "extraction.model"),
        ({"cavity": {"mu_rs": [1, 2, 3]}}, None, "error: cavity.mu_rs must be a number or a [re, im] pair"),
        ({}, [{"mu_re": 1.5, "tan_dm": 0.05}], "materials[0] needs 'name'"),
        # a name is a string: null, true and 1 would become labels "None", "True", "1"
        ({}, [{"name": None, "mu_re": 1.5, "tan_dm": 0.05}], "materials[0].name"),
        ({}, [{"name": True, "mu_re": 1.5, "tan_dm": 0.05}], "materials[0].name"),
        ({}, [{"name": 1, "mu_re": 1.5, "tan_dm": 0.05}], "materials[0].name"),
        # a loss given twice would keep one of the two silently
        (
            {},
            [{"name": "U", "mu_re": 1.5, "tan_dm": 0.05, "mu_im": 0.3}],
            "materials[0] gives both tan_dm and mu_im",
        ),
        # a note is a string: null and 1 would be written as null and "1"
        ({}, [{"name": "U", "mu_re": 1.5, "note": None}], "materials[0].note must be a string"),
        ({}, [{"name": "U", "mu_re": 1.5, "note": 1}], "materials[0].note must be a string"),
        # a key the schema does not list would leave its value at the default
        ({"cavity": {"eps": 2.2}}, None, "unknown key cavity.eps"),
        ({"sample": {"thickness": 1.57}}, None, "unknown key sample.thickness"),
        ({"mode": {"m": 1}}, None, "unknown key mode.m"),
        ({"extraction": {"q-method": "three-db"}}, None, "unknown key extraction.q-method"),
        ({"synth": {"noise_floor": -60}}, None, "unknown key synth.noise_floor"),
        ({"extraction": {"window_bandwidths": 5.0}}, None, "unknown key extraction.window_bandwidths"),
        ({"fit": {}}, None, "unknown key config.fit"),
        ({}, [{"name": "U", "mu_re": 1.5, "tan_d": 0.05}], "unknown key materials[0].tan_d"),
        # a range error names the entry and the key the user wrote
        ({}, [{"name": "U", "mu_re": 1.5}, {"name": "X", "mu_re": 1.5, "tan_dm": -0.1}],
         "materials[1].tan_dm must be >= 0"),
        ({}, [{"name": "U", "mu_re": 1.5}, {"name": "X", "mu_re": 1.5, "mu_im": -0.1}],
         "materials[1].mu_im must be >= 0"),
        ({}, [{"name": "U", "mu_re": 1.5}, {"name": "X", "mu_re": -1.5, "tan_dm": 0.1}],
         "materials[1].mu_re must be > 0"),
        # mu_re * tan_dm overflows to an infinite mu_im
        ({}, [{"name": "U", "mu_re": 10, "tan_dm": 1e308}], "materials[0].tan_dm"),
        # the roster is an array; an object around it is not read
        ({}, {"materials": [{"name": "U", "mu_re": 1.5}]}, "materials file must be a JSON array"),
        # a synth value out of range names its key, not the trace value it leads to
        ({"synth": {"il_linear": 1.2}}, None, "synth.il_linear must be in (0, 1)"),
        ({"synth": {"q0_empty": -1}}, None, "synth.q0_empty must be > 0"),
        ({"synth": {"span_bandwidths": 0}}, None, "synth.span_bandwidths must be >= 6"),
        # narrower than the 3-bandwidth margin on each side of the resonance
        ({"synth": {"span_bandwidths": 5.99}}, None,
         "synth.span_bandwidths must be >= 6 (3 bandwidths of margin on each side)"),
        # a choice is one of its listed strings; a list, null or object is none of them
        ({"extraction": {"q_method": ["three-db"]}}, None,
         "extraction.q_method must be one of ['lorentzian-fit', 'three-db']"),
        ({"extraction": {"q_method": None}}, None, "extraction.q_method"),
        ({"extraction": {"q_method": {"three-db": 1}}}, None, "extraction.q_method"),
        ({"extraction": {"interaction": ["axial-hx"]}}, None, "extraction.interaction"),
        ({"extraction": {"interaction": None}}, None, "extraction.interaction"),
        ({"extraction": {"interaction": {"axial-hx": 1}}}, None, "extraction.interaction"),
        ({"extraction": {"model": ["derived"]}}, None, "extraction.model"),
        ({"extraction": {"model": None}}, None, "extraction.model"),
        ({"extraction": {"model": {"derived": 1}}}, None, "extraction.model"),
        # a range error of a library type names the key the user wrote
        ({"cavity": {"width_a_mm": -1}}, None, "error: cavity.width_a_mm must be > 0"),
        ({"synth": {"n_points": 50}}, None, "error: synth.n_points must be >= 101"),
        # an over-long trace would exhaust memory; refused before any trace is allocated
        ({"synth": {"n_points": 1_000_002}}, None, "error: synth.n_points must be <= 1000001"),
        ({"synth": {"seed": -1}}, None, "error: synth.seed must fit in 64 bits"),
        ({"synth": {"noise_floor_db": -10}}, None, "error: synth.noise_floor_db must be < -20 dB"),
        ({"mode": {"n": 0}}, None, "error: mode.n must be an integer >= 1"),
        ({"extraction": {"cells_per_axis": 0}}, None, "error: extraction.cells_per_axis must be >= 8"),
        # checked at load for every model, not only where the quadrature runs
        ({"extraction": {"model": "derived", "cells_per_axis": 0}}, None,
         "error: extraction.cells_per_axis must be >= 8"),
        # a start finer than the bound would exhaust memory; refused before anything is allocated
        ({"extraction": {"cells_per_axis": 2**16 + 1}}, None,
         "error: extraction.cells_per_axis must be <= 65536"),
        # every field a library message names is named by its key, wherever it stands
        ({"cavity": {"via_diameter_d_mm": 0.5, "via_pitch_p_mm": 0.4}}, None,
         "error: via geometry requires 0 < cavity.via_diameter_d_mm < cavity.via_pitch_p_mm"),
        # the published prefactor is a quadcheck diagnostic, not an extraction model
        ({"extraction": {"model": "printed"}}, None,
         "error: extraction.model must be one of ['quadrature', 'derived']"),
        # an integer key beyond the float range fails like any other number
        ({"mode": {"n": 10**400}}, None, "error: mode.n must be a finite number"),
        # (n / l)^2 overflows in the TE10n frequency and field norm
        ({"cavity": {"length_l_mm": 1e-300}}, None,
         "error: cavity and mode give a TE10n frequency or field norm outside the float range"),
        # a mu_rs that is neither a number nor a pair names its key too
        ({"cavity": {"mu_rs": "x"}}, None, "error: cavity.mu_rs must be a number or a [re, im] pair"),
        # so in the other cavity messages that name two fields
        ({"cavity": {"height_h_mm": 31.0}}, None, "error: cavity.height_h_mm must be < cavity.width_a_mm"),
        ({"cavity": {"via_pitch_p_mm": 1.0}}, None,
         "error: cavity.via_diameter_d_mm and cavity.via_pitch_p_mm must be given together"),
        # the sample must fit the cavity, checked at load with the same renaming
        ({"sample": {"thickness_mm": 1.6}}, None, "error: sample.thickness_mm exceeds cavity.height_h_mm"),
        ({"sample": {"extent_z_a1_mm": 61.0}}, None, "error: sample.extent_z_a1_mm exceeds cavity.length_l_mm"),
        ({"sample": {"extent_x_l1_mm": 31.0}}, None, "error: sample.extent_x_l1_mm exceeds cavity.width_a_mm"),
        # with vias the bar is held to the width the fence leaves
        ({"cavity": {"via_diameter_d_mm": 1.0, "via_pitch_p_mm": 2.0}, "sample": {"extent_x_l1_mm": 29.9}},
         None, "error: sample.extent_x_l1_mm exceeds cavity.width_a_mm less "
         "cavity.via_diameter_d_mm^2 / (0.95 cavity.via_pitch_p_mm)"),
        # and so is the fence that leaves less than one via diameter of width
        ({"cavity": {"width_a_mm": 1.8, "height_h_mm": 1.0, "via_diameter_d_mm": 1.0,
                     "via_pitch_p_mm": 1.1}}, None,
         "error: cavity.width_a_mm less cavity.via_diameter_d_mm^2 / (0.95 cavity.via_pitch_p_mm) "
         "must exceed cavity.via_diameter_d_mm\n"),
        # mu_rs = mu' - j mu'': a positive imaginary part is a substrate with gain
        ({"cavity": {"mu_rs": [1.0, 0.002]}}, None, "error: cavity.mu_rs imaginary part must be <= 0\n"),
    ],
)
def test_malformed_value_exit_2_names_key(
    capsys, tmp_path, config_file, materials_file, overrides, roster, key
):
    # an exception escaping main is the traceback a user would see
    code, out, err = run(
        capsys, "--config", str(config_file(**overrides)), "compare",
        "--materials", str(materials_file(roster)), "--out-csv", str(tmp_path / "t.csv"),
    )
    assert (code, out) == (2, "")
    assert key in err


@pytest.mark.parametrize(
    "synth", [{"span_bandwidths": 1e308}, {"q0_empty": 1e-300}], ids=["span", "q0"]
)
def test_infinite_sweep_exit_2_names_both_keys(capsys, tmp_path, config_file, materials_file, synth):
    # each finite value makes span_bandwidths * f0 / Q_L overflow; under the
    # suite's filters a numpy RuntimeWarning on the way would fail the test
    code, out, err = run(
        capsys, "--config", str(config_file(synth=synth)), "compare",
        "--materials", str(materials_file()), "--out-csv", str(tmp_path / "t.csv"),
    )
    assert (code, out) == (2, "")
    assert "synth.span_bandwidths" in err and "synth.q0_empty" in err
    assert "it must be finite" in err


def test_unresolved_sweep_exit_2_names_both_keys(capsys, tmp_path, config_file, materials_file):
    # f0 -+ span/2 both round to f0, so the sweep has no width at all
    code, out, err = run(
        capsys, "--config", str(config_file(synth={"q0_empty": 1e300})), "compare",
        "--materials", str(materials_file()), "--out-csv", str(tmp_path / "t.csv"),
    )
    assert (code, out) == (2, "")
    assert "synth.span_bandwidths" in err and "synth.q0_empty" in err
    assert "f_start" not in err


def test_sweep_reaching_zero_hz_exit_2_names_both_keys(capsys, tmp_path, config_file, materials_file):
    # Q_L = 15: 20 bandwidths below f0 reach 2.5 GHz below 0 Hz
    code, out, err = run(
        capsys, "--config", str(config_file(synth={"q0_empty": 30, "il_linear": 0.5})), "compare",
        "--materials", str(materials_file()), "--out-csv", str(tmp_path / "t.csv"),
    )
    assert (code, out) == (2, "")
    assert "synth.span_bandwidths" in err and "synth.q0_empty" in err
    assert "start above 0 Hz" in err


@pytest.mark.parametrize("verb", ["modes", "quadcheck", "extract"])
@pytest.mark.parametrize(
    "synth, keys",
    [
        ({"q0_empty": -1}, ["synth.q0_empty"]),
        ({"span_bandwidths": 5.99}, ["synth.span_bandwidths"]),
        ({"n_points": 50}, ["synth.n_points"]),
        ({"q0_empty": 30, "il_linear": 0.5}, ["synth.span_bandwidths", "synth.q0_empty"]),
    ],
    ids=["q0", "span", "n-points", "zero-hz"],
)
def test_every_verb_checks_the_synth_section_at_load(capsys, tmp_path, config_file, verb, synth, keys):
    # the verbs that synthesize nothing refuse the config that synth and compare
    # refuse, before they read a trace
    trace = lorentzian_file(tmp_path / "t.s2p", 0.3)
    operands = [trace, trace] if verb == "extract" else []
    code, out, err = run(capsys, "--config", str(config_file(synth=synth)), verb, *operands)
    assert (code, out) == (2, "")
    assert all(key in err for key in keys), err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_names_the_flag(capsys, tmp_path, config_file, materials_file, seed):
    # the value came from the flag, so the error names the flag, not synth.seed
    code, out, err = run(
        capsys, "--config", str(config_file()), "--seed", seed, "compare",
        "--materials", str(materials_file()), "--out-csv", str(tmp_path / "t.csv"),
    )
    assert (code, out) == (2, "")
    assert err == "error: --seed must fit in 64 bits\n"


@pytest.mark.parametrize(
    "target, old, new, message",
    [
        ("config", '"n": 4', '"n": 2, "n": 4', "config repeats key 'n'"),
        ("materials", '"mu_re": 1.5', '"mu_re": 1.2, "mu_re": 1.5', "materials file repeats key 'mu_re'"),
    ],
    ids=["config", "materials"],
)
def test_repeated_key_exit_2(capsys, tmp_path, config_file, materials_file, target, old, new, message):
    # json keeps the last of a repeated key, and json.dumps cannot write one
    paths = {"config": config_file(), "materials": materials_file([{"name": "U", "mu_re": 1.5}])}
    text = paths[target].read_text()
    assert old in text
    paths[target].write_text(text.replace(old, new))
    code, out, err = run(
        capsys, "--config", str(paths["config"]), "compare",
        "--materials", str(paths["materials"]), "--out-csv", str(tmp_path / "t.csv"),
    )
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("flag", ["--config", "--seed", "--json"])
def test_common_flag_before_or_after_verb(capsys, tmp_path, config_file, materials_file, flag):
    config = config_file(synth={"noise_floor_db": -90.0})
    other = tmp_path / "other.json"
    other.write_text(config.read_text().replace('"n": 4', '"n": 2'))
    value = {"--config": [str(config)], "--seed": ["3"], "--json": []}
    stale = {"--config": [str(other)], "--seed": ["4"], "--json": []}[flag]
    rest = [arg for name, args in value.items() if name != flag for arg in (name, *args)]
    verb = ["compare", "--materials", str(materials_file()), "--out-csv", str(tmp_path / "t.csv")]
    given = [flag, *value[flag]]
    before = run(capsys, *rest, *given, *verb)
    assert before[0] == 0
    assert run(capsys, *rest, *verb, *given) == before
    # a value after the verb overrides one before it
    assert run(capsys, *rest, flag, *stale, *verb, *given) == before
    if stale:
        assert run(capsys, *rest, flag, *stale, *verb) != before


# the status each error exits with: 3 for a trace with no usable
# resonance, 4 for an unphysical result; any other error exits 2
STATUS = {
    "NoUsableResonanceError": 3,
    "FitFailureError": 3,
    "InsufficientSpanError": 3,
    "UnphysicalResultError": 4,
}
ERRORS = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.PermeameterError)
] + [OSError]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_exits_with_its_table_status(capsys, monkeypatch, config_file, cls):
    args = {errors.TouchstoneParseError: (7, "bad row")}
    exc = cls(*args.get(cls, ("bad row",)))

    def failing_load(path):
        raise exc

    monkeypatch.setattr(permeameter.cli, "load_config", failing_load)
    code, out, err = run(capsys, "--config", str(config_file()), "modes")
    table = next((status for error, status in EXIT_STATUS if isinstance(exc, error)), EXIT_CONFIG)
    assert (code, out) == (table, "")
    assert code == STATUS.get(cls.__name__, 2)
    assert err == f"error: {exc}\n"


def _no_usable_resonance(tmp_path, config_file, case):
    """Run the library call behind one of the exit-3 conditions that
    TestExtract, TestCompare and test_traceio.py provoke."""
    q_method = "three-db" if case in ("missing-crossing", "net-gain-three-db") else "lorentzian-fit"
    cfg = load_config(config_file(extraction={"q_method": q_method}))

    def trace(il=0.3, right_db=None):
        return parse_touchstone(Path(lorentzian_file(tmp_path / "t.s2p", il, right_db)).read_bytes())

    f = np.linspace(1e9, 2e9, 201)
    if case == "flat-trace":
        extract_report(cfg, FrequencyTrace(f, np.full(f.shape, 0.3 + 0j)), trace())
    elif case == "unpairable":
        far = lorentzian_trace(Resonance.from_loaded(5.0e9, 560.0, 0.3), SynthConfig(4.5e9, 5.5e9, 1001))
        extract_report(cfg, trace(), far)
    elif case == "edge-peak":
        q_3db(trace(), 0)
    elif case == "missing-crossing":
        extract_report(cfg, trace(right_db=3.005), trace(right_db=3.005))
    elif case.startswith("net-gain"):
        extract_report(cfg, trace(1.2), trace(1.2))
    else:  # a lone nonzero sample at the edge: no 3-dB fallback, singular normal equations
        fit_lorentzian(FrequencyTrace(f, np.where(f == f[0], 0.5, 0.0) + 0j), 0)


@pytest.mark.parametrize(
    "case,message",
    [
        ("flat-trace", "found 0 empty / 1 loaded resonances"),
        ("unpairable", "no loaded resonance within 10% of an empty one"),
        ("edge-peak", "peak at trace edge"),
        ("missing-crossing", "no half-power crossing on the right side"),
        ("net-gain-lorentzian-fit", "il_linear = 1.2 >= 1; trace shows net gain"),
        ("net-gain-three-db", "il_linear = 1.2 >= 1; trace shows net gain"),
        ("fit-failure", "resonance fit failed: singular normal equations"),
    ],
)
def test_each_no_resonance_condition_is_one_error_class(tmp_path, config_file, case, message):
    # a caller that goes on to the next pair catches this one class
    with pytest.raises(NoUsableResonanceError, match=re.escape(message)) as err:
        _no_usable_resonance(tmp_path, config_file, case)
    assert getattr(err.value, "fallback", None) is None


@pytest.mark.parametrize(
    "options,message",
    [
        ({"q_method": "3db"}, "q_method must be one of ['lorentzian-fit', 'three-db']"),
        ({"interaction": "bogus"}, "interaction must be one of ['axial-hx', 'transverse-hz', 'both-components']"),
        ({"model": "printed"}, "model must be one of ['quadrature', 'derived']"),
    ],
)
def test_extraction_options_check_their_choices(options, message):
    with pytest.raises(errors.ConfigurationError) as err:
        ExtractionOptions(**options)
    assert str(err.value) == message


def test_interaction_given_by_value_is_the_member(tmp_path, config_file):
    # the config reader passes the string through; ExtractionOptions makes it the member
    cfg = load_config(config_file(extraction={"interaction": "axial-hx"}))
    by_member = replace(cfg, extraction=ExtractionOptions(interaction=InteractionChoice.AXIAL_HX))
    by_value = replace(cfg, extraction=ExtractionOptions(interaction="axial-hx"))
    assert cfg.extraction == by_value.extraction == by_member.extraction
    assert by_value.extraction.interaction is InteractionChoice.AXIAL_HX
    empty = parse_touchstone(Path(lorentzian_file(tmp_path / "e.s2p", 0.3)).read_bytes())
    loaded = lorentzian_trace(Resonance.from_loaded(7.45e9, 540.0, 0.3), SynthConfig(7.3e9, 7.6e9, 4001))
    report = extract_report(by_value, empty, loaded)
    assert report == extract_report(by_member, empty, loaded)
    assert report["pairs"][0]["g_provenance"] == "quadrature-axial-hx"


@pytest.mark.parametrize(
    "overrides,verb,stderr",
    [
        # hundreds of field oscillations across the bar starve the 8..64 cell ladder
        ({"mode": {"n": 200}, "extraction": {"cells_per_axis": 8},
          "sample": {"extent_x_l1_mm": 29.0, "extent_z_a1_mm": 59.0, "thickness_mm": 1.0}},
         "quadcheck",
         "error: box integral did not converge within 3 grid doublings "
         "(last relative delta 1.943e-01)\n"),
        # a 1 um bar holds no field energy to speak of, in either direction
        *(({"sample": {"extent_x_l1_mm": 0.001, "extent_z_a1_mm": 0.001, "thickness_mm": 0.001}},
           verb,
           "error: geometry factor 9.456e-31 is degenerate (<= 1e-12); "
           "sample volume is effectively zero\n") for verb in ("compare", "synth")),
    ],
    ids=["quadrature-nonconvergence", "degenerate-sample", "degenerate-sample-synth"],
)
def test_model_limit_exits_2(capsys, tmp_path, config_file, materials_file, overrides, verb, stderr):
    # where the perturbation model stops, the run exits 2 with the library's message
    # and writes no file
    code, out, err = run(
        capsys, "--config", str(config_file(**overrides)), verb, *written_by(verb, tmp_path, materials_file())
    )
    assert (code, out, err) == (2, "", stderr)
    assert sorted(tmp_path.iterdir()) == [tmp_path / "config.json", tmp_path / "materials.json"]


def written_by(verb, tmp_path, materials):
    """The arguments of `verb` that name its roster and where it writes, under tmp_path."""
    outputs = {"compare": ["--out-csv", str(tmp_path / "t.csv")], "synth": ["--out-dir", str(tmp_path / "camp")]}
    return ["--materials", str(materials), *outputs[verb]] if verb in outputs else []


@pytest.mark.parametrize(
    "mu_re,verb,code,stderr",
    [
        *((70.0, verb, 2, "error: material 'F': |re| of a fractional shift must be < 1\n")
          for verb in ("synth", "compare")),
        *((40.0, verb, 2, "error: material 'F': its resonance lies 0.384 of the empty f0 away, "
                          "beyond 10%, the perturbation model's guard\n") for verb in ("synth", "compare")),
    ],
    ids=["outside-synth", "outside-compare", "inside-synth", "inside-compare"],
)
def test_synth_and_compare_share_the_shift_limit(
    capsys, tmp_path, config_file, materials_file, mu_re, verb, code, stderr
):
    # on axial-hx g = 0.03201: mu' = 70 puts re at -1.104, which neither direction
    # admits; mu' = 40 puts it at -0.624, inside the model but beyond pairing, so
    # synthesis refuses what extraction could not pair
    cfg = str(config_file(extraction={"interaction": "axial-hx"}))
    args = written_by(verb, tmp_path, materials_file([{"name": "F", "mu_re": mu_re}]))
    got, _, err = run(capsys, "--config", cfg, verb, *args)
    assert (got, err) == (code, stderr)
    assert (tmp_path / "camp").exists() == (verb == "synth" and code == 0)


@pytest.mark.parametrize("doc", ["README", "cli docstring"])
def test_documented_exit_codes_are_the_table(doc):
    text = README.read_text() if doc == "README" else permeameter.cli.__doc__
    sentence = " ".join(text.split("Exit codes:", 1)[1].split(".", 1)[0].split())
    documented = {int(code) for code in re.findall(r"(?:^|, )(\d+) ", sentence)}
    assert documented == {EXIT_OK, EXIT_CONFIG} | {status for _, status in EXIT_STATUS}


def test_readme_names_each_error_class_with_its_status():
    # "A, B and C exit 3; D exits 4; ...": each class in the clause of its code
    text = README.read_text().split("subclasses of `PermeameterError`:", 1)[1]
    clauses = text.split("operating-system error", 1)[0].split(";")
    documented = {name: int(re.search(r"exits? (\d)", clause)[1])
                  for clause in clauses for name in re.findall(r"`(\w+)`", clause)}
    table = {
        cls.__name__: next((status for error, status in EXIT_STATUS if issubclass(cls, error)), EXIT_CONFIG)
        for cls in ERRORS if cls not in (OSError, errors.PermeameterError)
    }
    assert documented == table


def test_warnings_other_than_near_critical_pass_through(capsys, monkeypatch, config_file):
    # only NearCriticalCouplingWarning is printed as one line; the suite
    # turns a RuntimeWarning into an error, inside main as elsewhere
    category = RuntimeWarning

    def warning_load(path):
        warnings.warn("overflow encountered", category)
        raise errors.ConfigurationError("not read")

    monkeypatch.setattr(permeameter.cli, "load_config", warning_load)
    with pytest.raises(RuntimeWarning, match="overflow encountered"):
        main(["--config", str(config_file()), "modes"])
    category = UserWarning
    with pytest.warns(UserWarning, match="overflow encountered"):
        assert main(["--config", str(config_file()), "modes"]) == 2


def test_readme_config_example_loads(tmp_path):
    # the documented schema is the one the loader reads: an unlisted key
    # exits 2, so a key the README names but the loader does not fails here
    readme = README.read_text()
    example = readme.split("## CLI", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(example)
    cfg = load_config(path)
    assert cfg.extraction == ExtractionOptions()
    assert (cfg.mode.n, cfg.synth.seed) == (4, 12345)


def test_config_format_sits_below_the_front_end():
    # permeameter.config reads the files and imports nothing of the CLI;
    # cli restates none of its names and takes only its public ones
    config, cli = module_tree("config"), module_tree("cli")
    assert "cli" not in package_imports(config)
    defined = top_level_names(config)
    assert {"RunConfig", "ExtractionOptions", "load_config", "load_materials", "renamed"} <= defined
    assert top_level_names(cli) & defined == set()
    imported = names_imported_from(cli, "config")
    assert "load_config" in imported
    assert {name for name in imported if name.startswith("_")} == set()


def test_import_loads_no_scipy():
    # every CLI run pays for what its import pulls in, and scipy.signal
    # was most of that start-up
    src = str(Path(permeameter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    probe = (
        "import sys, permeameter.cli, permeameter; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "verb, overrides",
    [("quadcheck", {"mode": {"n": 10**400}}), ("modes", {"cavity": {"length_l_mm": 1e-300}})],
    ids=["n", "length"],
)
def test_float_overflow_exit_2(capsys, config_file, verb, overrides):
    # an OverflowError escaping main is the traceback a user would see
    code, out, err = run(capsys, "--config", str(config_file(**overrides)), verb)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_modes_checks_its_highest_n(capsys, config_file):
    # this cavity's TE10n frequency fits a float up to n = 4, and not at n = 5
    path = str(config_file(
        cavity={"length_l_mm": 3e-151}, sample={"extent_z_a1_mm": 1e-151}, mode={"n": 1},
    ))
    assert run(capsys, "--config", path, "modes", "--max-n", "4")[0] == 0
    code, _, err = run(capsys, "--config", path, "modes", "--max-n", "5")
    assert (code, err) == (2, "error: cavity and --max-n 5 give a TE10n frequency outside the float range\n")


@pytest.mark.parametrize("which", ["config", "materials"])
def test_json_that_is_not_utf8_exit_2_names_the_file(capsys, tmp_path, config_file, materials_file, which):
    # byte 0xB5 is the micro sign in latin-1 and cp1252, and no UTF-8 text on its own
    cfg, mats = config_file(), materials_file()
    if which == "config":
        cfg.write_bytes(cfg.read_bytes().replace(b'"transverse-hz"', b'"transverse-hz \xb5"'))
    else:
        mats.write_bytes(b'[{"name": "U", "mu_re": 1.5, "note": "\xb5-metal"}]')
    code, out, err = run(
        capsys, "--config", str(cfg), "compare",
        "--materials", str(mats), "--out-csv", str(tmp_path / "t.csv"),
    )
    assert (code, out) == (2, "")
    assert repr(str(cfg if which == "config" else mats)) in err
    assert "is not UTF-8 text" in err


def run_in_c_locale(*argv):
    """`python -m permeameter.cli *argv` in the C locale, with neither UTF-8
    mode nor locale coercion: its text and file-system encodings are ASCII."""
    src = str(Path(permeameter.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key not in ("PYTHONIOENCODING", "LANG")}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "permeameter.cli", *map(str, argv)], env=env, capture_output=True, timeout=120,
    )


@pytest.fixture
def micro_roster(tmp_path):
    mats = tmp_path / "materials.json"
    mats.write_bytes('[{"name": "µ-metal", "mu_re": 1.5, "note": "µ ≈ 1.5"}]'.encode("utf-8"))
    return mats


def test_json_in_and_csv_out_are_utf8_in_the_c_locale(tmp_path, config_file, micro_roster):
    out_csv = tmp_path / "t.csv"
    done = run_in_c_locale(
        "--config", config_file(), "--json", "compare", "--materials", micro_roster, "--out-csv", out_csv,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["rows"][0]["material"] == "µ-metal"
    row = out_csv.read_bytes().split(b"\n")[1]
    assert row.startswith("µ-metal,".encode("utf-8")) and row.endswith("µ ≈ 1.5".encode("utf-8"))


def test_text_out_and_file_names_in_the_c_locale(tmp_path, config_file, micro_roster):
    # stdout escapes what ASCII cannot hold, rather than failing after the CSV is written
    done = run_in_c_locale(
        "--config", config_file(), "compare", "--materials", micro_roster, "--out-csv", tmp_path / "t.csv",
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.split(b"\n")[1].startswith(b"\\xb5-metal,")
    # an ASCII file-system encoding cannot hold the name, so no file is written at all
    out_dir = tmp_path / "campaign"
    done = run_in_c_locale("--config", config_file(), "synth", "--materials", micro_roster, "--out-dir", out_dir)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"error: material name '\\xb5-metal' cannot be part of a file name\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("verb", ["modes", "quadcheck", "extract", "synth", "compare"])
def test_sample_that_does_not_fit_exits_2_before_any_work(capsys, tmp_path, config_file, materials_file, verb):
    # the trace files do not exist and the output paths are not written: the config fails first
    mats = materials_file()
    argv = {
        "extract": [tmp_path / "no_empty.s2p", tmp_path / "no_loaded.s2p"],
        "synth": ["--materials", mats, "--out-dir", tmp_path / "campaign"],
        "compare": ["--materials", mats, "--out-csv", tmp_path / "t.csv"],
    }.get(verb, [])
    cfg = config_file(sample={"thickness_mm": 1.6})
    code, out, err = run(capsys, "--config", str(cfg), verb, *map(str, argv))
    assert (code, out, err) == (2, "", "error: sample.thickness_mm exceeds cavity.height_h_mm\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "materials.json"]


@pytest.mark.parametrize(
    "verb, which, string",
    [("synth", "materials", "name"), ("compare", "materials", "name"), ("compare", "materials", "note"),
     ("compare", "config", "q_method"), ("quadcheck", "config", "key")],
)
def test_string_that_is_not_unicode_exit_2_names_the_file(
    capsys, tmp_path, config_file, materials_file, verb, which, string
):
    # json.dumps writes the lone surrogate as the JSON escape "\ud800", which json.loads
    # reads back into a str that no UTF-8 text (a CSV, a seed hash, a file name) can hold
    roster = {
        "name": [{"name": "A\ud800", "mu_re": 1.5}], "note": [{"name": "A", "mu_re": 1.5, "note": "x\udc80"}],
    }
    mats = materials_file(roster.get(string))
    cfg = config_file(**{
        "q_method": {"extraction": {"q_method": "three-db\ud800"}}, "key": {"mode": {"n\ud800": 4}},
    }.get(string, {}))
    out_csv, out_dir = tmp_path / "t.csv", tmp_path / "campaign"
    out_csv.write_bytes(b"kept\n")
    argv = {
        "synth": ["--materials", mats, "--out-dir", out_dir],
        "compare": ["--materials", mats, "--out-csv", out_csv],
    }.get(verb, [])
    code, out, err = run(capsys, "--config", str(cfg), verb, *map(str, argv))
    what, path = ("config", cfg) if which == "config" else ("materials file", mats)
    assert (code, out) == (2, "")
    assert err == f"error: {what} {str(path)!r} is not Unicode text: a string escapes a lone surrogate\n"
    assert out_csv.read_bytes() == b"kept\n" and not out_dir.exists()


def test_paired_surrogate_escape_is_one_character(capsys, tmp_path, config_file):
    # a JSON escape pair is one astral character, which UTF-8 holds
    mats = tmp_path / "materials.json"
    mats.write_text('[{"name": "A\\ud83d\\ude00", "mu_re": 1.5, "note": "\\ud83d\\ude00"}]')
    out_csv = tmp_path / "t.csv"
    code, out, err = run(
        capsys, "--config", str(config_file()), "--json", "compare",
        "--materials", str(mats), "--out-csv", str(out_csv),
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["rows"][0]["material"] == "A\U0001f600"
    row = out_csv.read_bytes().split(b"\n")[1]
    assert row.startswith("A\U0001f600,".encode("utf-8")) and row.endswith("\U0001f600".encode("utf-8"))


def test_integer_past_the_digit_limit_exit_2_names_the_file(capsys, config_file):
    # int() refuses more than 4300 digits by default, and json.loads hands it every integer
    cfg = config_file()
    cfg.write_text(cfg.read_text().replace('"n": 4', '"n": 1' + "0" * 5000))
    code, out, err = run(capsys, "--config", str(cfg), "modes")
    assert (code, out) == (2, "")
    assert err == f"error: config {str(cfg)!r} holds an integer of too many digits\n"


def test_nesting_past_the_recursion_limit_exit_2_names_the_file(capsys, tmp_path, config_file):
    mats = tmp_path / "materials.json"
    mats.write_text("[" * 100000 + "]" * 100000)
    out_csv = tmp_path / "t.csv"
    out_csv.write_bytes(b"kept\n")
    code, out, err = run(
        capsys, "--config", str(config_file()), "compare", "--materials", str(mats), "--out-csv", str(out_csv),
    )
    assert (code, out) == (2, "")
    assert err == f"error: materials file {str(mats)!r} nests arrays or objects too deeply\n"
    assert out_csv.read_bytes() == b"kept\n"


@pytest.mark.parametrize("verb", ["quadcheck", "extract", "compare"])
def test_cells_per_axis_above_the_bound_exit_2_at_load(capsys, tmp_path, config_file, materials_file, verb):
    traces = [lorentzian_file(tmp_path / f"{name}.s2p", 0.5) for name in ("empty", "loaded")]
    argv = {
        "extract": traces,
        "compare": ["--materials", materials_file(), "--out-csv", tmp_path / "t.csv"],
    }.get(verb, [])
    before = sorted(path.name for path in tmp_path.iterdir())
    config = config_file(extraction={"cells_per_axis": 2**16 + 1})
    code, out, err = run(capsys, "--config", str(config), verb, *map(str, argv))
    assert (code, out, err) == (2, "", "error: extraction.cells_per_axis must be <= 65536\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(before + ["config.json"])


@pytest.mark.parametrize(
    "verb, overrides",
    [
        ("quadcheck", {"extraction": {"cells_per_axis": 10**15}}),
        ("extract", {"extraction": {"cells_per_axis": 10**15}}),
        ("compare", {"extraction": {"cells_per_axis": 10**15}}),
        ("compare", {"synth": {"n_points": 10**15}}),
        ("synth", {"synth": {"n_points": 10**15}}),
    ],
    ids=["quadcheck-cells", "extract-cells", "compare-cells", "compare-points", "synth-points"],
)
def test_impossible_allocation_exit_2(capsys, tmp_path, config_file, materials_file, verb, overrides):
    # 10**15 float64s are 8 PB, more than any 64-bit address space holds, so numpy's
    # MemoryError comes at once whatever the host's overcommit setting
    mats = materials_file()
    traces = [lorentzian_file(tmp_path / f"{name}.s2p", 0.5) for name in ("empty", "loaded")]
    argv = {
        "extract": traces,
        "synth": ["--materials", mats, "--out-dir", tmp_path / "campaign"],
        "compare": ["--materials", mats, "--out-csv", tmp_path / "t.csv"],
    }.get(verb, [])
    before = sorted(path.name for path in tmp_path.iterdir())
    code, out, err = run(capsys, "--config", str(config_file(**overrides)), verb, *map(str, argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) > len("error: \n")
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(before + ["config.json"])
