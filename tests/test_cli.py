"""Tests for the command-line interface (repro.cli)."""

import numpy as np
import pytest

from repro.cli import build_parser, load_points, main
from repro.errors import InvalidInputError


class TestLoadPoints:
    def test_dataset_spec(self):
        pts = load_points("dataset:Uniform100M2:100")
        assert pts.shape == (100, 2)

    def test_dataset_spec_with_seed(self):
        a = load_points("dataset:Hacc37M:50:1")
        b = load_points("dataset:Hacc37M:50:2")
        assert not np.array_equal(a, b)

    def test_npy_file(self, tmp_path, rng):
        path = tmp_path / "pts.npy"
        np.save(path, rng.random((20, 3)))
        assert load_points(str(path)).shape == (20, 3)

    def test_bad_spec(self):
        with pytest.raises(InvalidInputError):
            load_points("dataset:OnlyTwoParts")

    def test_bad_shape(self, tmp_path):
        path = tmp_path / "bad.npy"
        np.save(path, np.zeros(5))
        with pytest.raises(InvalidInputError):
            load_points(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError, match="no such file"):
            load_points(str(tmp_path / "absent.npy"))

    def test_not_an_npy_file(self, tmp_path):
        path = tmp_path / "garbage.npy"
        path.write_bytes(b"this is not a numpy file")
        with pytest.raises(InvalidInputError, match="not a readable"):
            load_points(str(path))

    def test_non_numeric_array(self, tmp_path):
        path = tmp_path / "words.npy"
        np.save(path, np.array([["a", "b"], ["c", "d"]]))
        with pytest.raises(InvalidInputError, match="numeric"):
            load_points(str(path))

    def test_non_integer_dataset_size(self):
        with pytest.raises(InvalidInputError, match="integer"):
            load_points("dataset:Uniform100M2:many")
        with pytest.raises(InvalidInputError, match="integer"):
            load_points("dataset:Uniform100M2:100:later")

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="seed"):
            load_points("dataset:Uniform100M2:100:-5")

    def test_bool_array_still_accepted(self, tmp_path):
        path = tmp_path / "bool.npy"
        np.save(path, np.array([[0, 0], [1, 0], [0, 1]], dtype=bool))
        assert load_points(str(path)).shape == (3, 2)

    def test_complex_array_rejected(self, tmp_path):
        path = tmp_path / "complex.npy"
        np.save(path, np.array([[1 + 2j, 2.0], [3.0, 4.0]]))
        with pytest.raises(InvalidInputError, match="numeric"):
            load_points(str(path))

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["emst", str(tmp_path / "absent.npy")]) == 2
        assert "error:" in capsys.readouterr().err


class TestEmstCommand:
    def test_basic(self, capsys):
        assert main(["emst", "dataset:Uniform100M2:200"]) == 0
        out = capsys.readouterr().out
        assert "total weight" in out
        assert "Boruvka rounds" in out

    def test_mrd(self, capsys):
        assert main(["emst", "dataset:Normal100M3:100", "--mrd", "4"]) == 0
        assert "mutual reachability" in capsys.readouterr().out

    def test_kdtree_backend(self, capsys):
        assert main(["emst", "dataset:Uniform100M3:150",
                     "--tree", "kdtree"]) == 0

    def test_high_resolution(self, capsys):
        assert main(["emst", "dataset:Uniform100M2:100",
                     "--high-resolution"]) == 0

    def test_ablation_flags(self, capsys):
        assert main(["emst", "dataset:Uniform100M2:100",
                     "--no-subtree-skipping",
                     "--no-component-bounds"]) == 0

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "edges.npy"
        assert main(["emst", "dataset:Uniform100M2:50",
                     "--out", str(out)]) == 0
        edges = np.load(out)
        assert edges.shape == (49, 3)
        assert np.all(edges[:, 2] >= 0)

    def test_error_exit_code(self, capsys):
        assert main(["emst", "dataset:NoSuch:10"]) == 2
        assert "error:" in capsys.readouterr().err


class TestOtherCommands:
    def test_hdbscan(self, tmp_path, capsys, rng):
        path = tmp_path / "pts.npy"
        blobs = np.concatenate([rng.normal((0, 0), 0.05, size=(60, 2)),
                                rng.normal((5, 5), 0.05, size=(60, 2))])
        np.save(path, blobs)
        labels_out = tmp_path / "labels.npy"
        assert main(["hdbscan", str(path), "--min-cluster-size", "10",
                     "--out", str(labels_out)]) == 0
        labels = np.load(labels_out)
        assert labels.shape == (120,)
        assert "2 clusters" in capsys.readouterr().out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Hacc37M" in out
        assert "GeoLife24M3D" in out

    def test_bench_quick(self, capsys):
        assert main(["bench", "fig1", "--quick"]) == 0
        assert "Figure 1" in capsys.readouterr().out


class TestServiceCommands:
    """CLI submit against the live-server ``api`` fixture (conftest.py)."""

    def test_submit_dataset_round_trip(self, api, capsys):
        assert main(["submit", "dataset:Uniform100M2:300",
                     "--url", api]) == 0
        out = capsys.readouterr().out
        assert "done (emst)" in out
        assert "total weight" in out

    def test_submit_npy_file(self, api, tmp_path, capsys, rng):
        path = tmp_path / "pts.npy"
        np.save(path, rng.random((150, 3)))
        assert main(["submit", str(path), "--url", api]) == 0
        assert "150 (3D)" in capsys.readouterr().out

    def test_submit_hdbscan(self, api, capsys):
        assert main(["submit", "dataset:VisualVar10M2D:400",
                     "--algorithm", "hdbscan", "--url", api]) == 0
        assert "clusters" in capsys.readouterr().out

    def test_submit_bad_dataset_rejected_by_server(self, api, capsys):
        assert main(["submit", "dataset:NoSuchDataset:50",
                     "--url", api]) == 1
        assert "rejected" in capsys.readouterr().err

    def test_submit_unreachable_server(self, capsys):
        assert main(["submit", "dataset:Uniform100M2:50",
                     "--url", "http://127.0.0.1:1"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_bad_local_file_exit_code(self, tmp_path, capsys):
        assert main(["submit", str(tmp_path / "absent.npy")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_url_without_scheme_exit_code(self, capsys):
        assert main(["trace", "myhost", "job-1"]) == 2
        assert "error: node URL must be http(s)://" in \
            capsys.readouterr().err

    def test_cluster_demo_warm_pass_hits_every_job(self, capsys):
        assert main(["cluster-demo", "--nodes", "2", "--jobs", "3",
                     "--points", "200"]) == 0
        warm = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("warm")]
        assert len(warm) == 1
        assert "3/3 done" in warm[0]
        assert "3 result-cache hit(s)" in warm[0]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])

    def test_serve_workers_flag(self):
        args = build_parser().parse_args(["serve", "--workers", "3"])
        assert args.workers == 3

    def test_serve_store_flags(self):
        args = build_parser().parse_args(
            ["serve", "--store-dir", "/tmp/s", "--store-mb", "64"])
        assert args.store_dir == "/tmp/s"
        assert args.store_mb == 64
        # Persistence is opt-in: no flag, no store.
        assert build_parser().parse_args(["serve"]).store_dir is None
