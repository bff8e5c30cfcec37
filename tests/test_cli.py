"""File formats and the command-line surface."""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttspectral import cli, fileio, planner
from ttspectral.autodiff import FrobeniusLoss, pack
from ttspectral.cli import main
from ttspectral.errors import FileFormatError
from ttspectral.planner import apply_map, decompress
from ttspectral.schemes import SCHEMES
from ttspectral.sampling import random_sttp_params, random_svdp_params
from ttspectral.spectrum_modes import (
    IDENTITY,
    LEARNED,
    LEARNED_REGULARIZED,
    SPECTRUM_MODES,
)
from ttspectral.sttp import init_sttp_params
from ttspectral.svdp import init_svdp_params


def nan_payload_file(path, params):
    """Write ``params`` with the last payload value replaced by a NaN."""
    fileio.write_params(path, params)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8] + np.array(np.nan, "<f8").tobytes())


def read_or_reject(path, damaged, read, write):
    """Write ``damaged`` bytes to ``path`` and read them: the reader must
    raise ``FileFormatError`` or give an object that the writer and the
    reader round-trip bitwise."""
    path.write_bytes(damaged)
    try:
        got = read(path)
    except FileFormatError:
        return
    write(path, got)
    first = path.read_bytes()
    write(path, read(path))
    assert path.read_bytes() == first


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


SMALL_MATRIX = np.arange(6.0).reshape(2, 3)
# sttp parameters whose dout is the prime 2**61 - 1; the one sigma block
# keeps the declared counts and the payload consistent
HUGE_DOUT_FILE = (b"STTPPARAMS v1\nscheme=sttp\ndout=2305843009213693951\n"
                  b"din=4\nrank=1\nspectrum=learned\nlambda=0.0\n"
                  b"out_factors=2305843009213693951\nin_factors=2,2\n"
                  b"rank_schedule=1,1,1,1\nblock=sigma 1\n\n"
                  + np.array(1.0, "<f8").tobytes())
# (scheme, dout, din, rank) of the gradcheck instances that CI runs
GRADCHECK_INSTANCES = [("svdp", 8, 6, 3), ("sttp", 16, 72, 4),
                       ("sttp", 64, 64, 8), ("svdp", 64, 48, 8),
                       ("sttp", 256, 256, 8)]


def gradcheck_flags(scheme, d_out, d_in, r):
    return ["--scheme", scheme, "--dout", str(d_out), "--din", str(d_in),
            "--rank", str(r), "--seed", "0"]


class SkewedLoss(FrobeniusLoss):
    """The Frobenius loss with its cotangent on U scaled by ``1 + 1e-4``,
    so that its gradient is wrong by that relative amount."""

    def terms(self, tape):
        value, (g_u, g_sigma, g_v) = super().terms(tape)
        return value, (g_u * (1.0 + 1e-4), g_sigma, g_v)


SMALL_PARAMS = [
    lambda: random_svdp_params(6, 5, 3, IDENTITY, 1),
    lambda: random_sttp_params(12, 18, 3, "learned_regularized", 5, lam=0.25),
]


class TestMatrixFile:
    def test_header_format(self, tmp_path):
        path = tmp_path / "m.mat"
        fileio.write_matrix(path, np.zeros((3, 2)))
        header = path.read_bytes().split(b"\n", 1)[0]
        assert header == b"STTPMAT v1 rows=3 cols=2 dtype=f64 order=row-major"

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 5))
        a, b = tmp_path / "a.mat", tmp_path / "b.mat"
        fileio.write_matrix(a, m)
        back = fileio.read_matrix(a)
        assert np.array_equal(back, m)
        fileio.write_matrix(b, back)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.mat"
        fileio.write_matrix(path, np.zeros((3, 2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FileFormatError):
            fileio.read_matrix(path)

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_non_matrix_write_rejected(self, tmp_path, shape):
        with pytest.raises(FileFormatError, match="2-D arrays"):
            fileio.write_matrix(tmp_path / "m.mat", np.zeros(shape))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_bytes(b"NOTMAT v1 rows=1 cols=1 dtype=f64 order=row-major\n"
                         + b"\x00" * 8)
        with pytest.raises(FileFormatError):
            fileio.read_matrix(path)

    @pytest.mark.parametrize("shape", [(72, 0), (0, 5), (0, 0)])
    def test_zero_size_round_trip(self, tmp_path, shape):
        a, b = tmp_path / "a.mat", tmp_path / "b.mat"
        fileio.write_matrix(a, np.zeros(shape))
        back = fileio.read_matrix(a)
        assert back.shape == shape
        fileio.write_matrix(b, back)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("header", [
        b"STTPMAT v1 rows=1 cols1 dtype=f64 order=row-major\n",
        b"STTPMAT v1 rows=-1 cols=1 dtype=f64 order=row-major\n",
    ])
    def test_bad_field_rejected(self, tmp_path, header):
        path = tmp_path / "m.mat"
        path.write_bytes(header + b"\x00" * 8)
        with pytest.raises(FileFormatError):
            fileio.read_matrix(path)

    @pytest.mark.parametrize("edit", [
        (b"rows=2", b"rows=02"),
        (b"cols=30", b"cols=+30"),
        (b"cols=30", b"cols=3_0"),
        (b"rows=2 cols=30", b"cols=30 rows=2"),
        (b"dtype=f64 order=row-major", b"order=row-major dtype=f64"),
        (b"row-major\n", b"row-major \n"),
    ])
    def test_header_the_writer_would_not_write_rejected(self, tmp_path,
                                                        edit):
        path = tmp_path / "m.mat"
        fileio.write_matrix(path, np.arange(60.0).reshape(2, 30))
        raw = path.read_bytes()
        assert edit[0] in raw
        path.write_bytes(raw.replace(*edit, 1))
        with pytest.raises(FileFormatError, match="bad matrix header"):
            fileio.read_matrix(path)
        params = tmp_path / "p.params"
        fileio.write_params(params, random_svdp_params(4, 2, 2, LEARNED, 0))
        assert run_main(["apply", "--params", str(params), "--in", str(path),
                         "--out", str(tmp_path / "y.mat")])[0] == 3

    def test_truncated_file_rejected_or_valid(self, tmp_path):
        fileio.write_matrix(tmp_path / "m.mat", SMALL_MATRIX)
        raw = (tmp_path / "m.mat").read_bytes()
        for pos in range(len(raw)):
            read_or_reject(tmp_path / "d.mat", raw[:pos], fileio.read_matrix,
                           fileio.write_matrix)

    @given(pos=st.integers(0, 10**6), byte=st.integers(0, 255))
    @settings(max_examples=300, deadline=None)
    def test_header_byte_replaced_rejected_or_valid(self, fuzz_dir, pos,
                                                    byte):
        fileio.write_matrix(fuzz_dir / "m.mat", SMALL_MATRIX)
        raw = (fuzz_dir / "m.mat").read_bytes()
        k = pos % (raw.index(b"\n") + 1)
        read_or_reject(fuzz_dir / "d.mat", raw[:k] + bytes([byte]) + raw[k + 1:],
                       fileio.read_matrix, fileio.write_matrix)


class TestParamsFile:
    @pytest.mark.parametrize("maker,mode", [
        (lambda: random_svdp_params(6, 5, 3, LEARNED, 0), LEARNED),
        (lambda: random_svdp_params(6, 5, 3, IDENTITY, 1), IDENTITY),
        (lambda: random_sttp_params(16, 72, 4, LEARNED, 2), LEARNED),
        (lambda: random_sttp_params(12, 18, 3, IDENTITY, 3), IDENTITY),
        (lambda: random_svdp_params(6, 5, 3, "learned_regularized", 4,
                                    lam=0.1), "learned_regularized"),
        (lambda: random_sttp_params(12, 18, 3, "learned_regularized", 5,
                                    lam=0.25), "learned_regularized"),
    ])
    def test_round_trip_bit_identical(self, tmp_path, maker, mode):
        params = maker()
        a, b = tmp_path / "a.params", tmp_path / "b.params"
        fileio.write_params(a, params)
        back = fileio.read_params(a)
        assert decompress(back).tobytes() == decompress(params).tobytes()
        x = np.random.default_rng(0).standard_normal((params.d_in, 3))
        assert apply_map(back, x).tobytes() == apply_map(params, x).tobytes()
        assert back.spectrum.lam == params.spectrum.lam
        fileio.write_params(b, back)
        assert a.read_bytes() == b.read_bytes()

    @given(scheme=st.sampled_from(sorted(SCHEMES)),
           mode=st.sampled_from(SPECTRUM_MODES),
           d_out=st.integers(2, 24), d_in=st.integers(2, 24),
           r=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_payload_is_the_pack_vector(self, fuzz_dir, scheme, mode, d_out,
                                        d_in, r, seed):
        lam = 0.25 if mode == LEARNED_REGULARIZED else 0.0
        params = SCHEMES[scheme].random(d_out, d_in, min(r, d_out, d_in),
                                        mode, seed, lam)
        path = fuzz_dir / "pack.params"
        fileio.write_params(path, params)
        raw = path.read_bytes()
        payload = raw[raw.index(b"\n\n") + 2:]
        assert payload == pack(params).astype("<f8").tobytes()

    @pytest.mark.parametrize("maker", [random_svdp_params,
                                       random_sttp_params])
    @pytest.mark.parametrize("mode", [IDENTITY, LEARNED_REGULARIZED])
    def test_a_read_builds_one_parameter_set(self, tmp_path, monkeypatch,
                                             maker, mode):
        # the payload unpacked onto the structure record, with the file's
        # spectrum: the set it returns is the only one built
        params = maker(12, 18, 3, mode, 6, 0.25)
        path = tmp_path / "p.params"
        fileio.write_params(path, params)
        cls, built = type(params), []
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda p: built.append(p) or check(p))
        back = fileio.read_params(path)
        assert built == [back]
        assert back.spectrum.lam == 0.25
        assert back.spectrum.signs.tobytes() == params.spectrum.signs.tobytes()

    def test_declared_counts_equal_dof(self, tmp_path):
        from ttspectral.sttp import sttp_dof

        params = random_sttp_params(16, 72, 4, LEARNED, 5)
        path = tmp_path / "p.params"
        fileio.write_params(path, params)
        manifest = path.read_bytes().split(b"\n\n", 1)[0].decode()
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in manifest.splitlines()
                  if line.startswith("block=")]
        assert sum(counts) == sttp_dof(16, 72, 4, LEARNED)

    def test_an_object_without_a_chain_record_is_not_written(self, tmp_path):
        path = tmp_path / "p.params"
        with pytest.raises(FileFormatError, match="cannot serialize"):
            fileio.write_params(path, object())
        assert not path.exists()

    def test_payload_length_checked(self, tmp_path):
        params = random_svdp_params(6, 5, 3, LEARNED, 0)
        path = tmp_path / "p.params"
        fileio.write_params(path, params)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FileFormatError):
            fileio.read_params(path)

    def test_huge_declared_dims_rejected_before_allocating(self, tmp_path):
        import tracemalloc

        path = tmp_path / "p.params"
        fileio.write_params(path, random_svdp_params(6, 5, 3, LEARNED, 0))
        raw = path.read_bytes()
        for key, value in ((b"dout=6", b"dout=2000"), (b"din=5", b"din=2000"),
                           (b"rank=3", b"rank=2000")):
            assert key in raw
            raw = raw.replace(key, value, 1)
        path.write_bytes(raw)
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError, match="dims and rank need"):
                fileio.read_params(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a 2000 x 2000 layout would take tens of MB

    def test_identity_signs_of_wrong_length_rejected(self, tmp_path):
        path = tmp_path / "p.params"
        fileio.write_params(path, random_svdp_params(6, 5, 3, IDENTITY, 1))
        raw = path.read_bytes()
        start = raw.index(b"signs=")
        end = raw.index(b"\n", start)
        path.write_bytes(raw[:start] + b"signs=1,1" + raw[end:])
        with pytest.raises(FileFormatError):
            fileio.read_params(path)

    @pytest.mark.parametrize("maker", [
        lambda: random_svdp_params(16, 72, 4, LEARNED, 0),
        lambda: random_sttp_params(16, 72, 4, LEARNED, 1),
        lambda: random_sttp_params(12, 18, 3, IDENTITY, 2),
    ])
    def test_non_finite_payload_rejected(self, tmp_path, maker):
        path = tmp_path / "p.params"
        nan_payload_file(path, maker())
        with pytest.raises(FileFormatError, match="non-finite"):
            fileio.read_params(path)

    @pytest.mark.parametrize("value", [b"nan", b"inf", b"-0.5"])
    def test_bad_regularizer_weight_rejected(self, tmp_path, value):
        path = tmp_path / "p.params"
        fileio.write_params(path, random_svdp_params(
            6, 5, 3, "learned_regularized", 4, lam=0.1))
        raw = path.read_bytes()
        assert b"lambda=0.1\n" in raw
        path.write_bytes(raw.replace(b"lambda=0.1\n",
                                     b"lambda=" + value + b"\n"))
        with pytest.raises(FileFormatError):
            fileio.read_params(path)

    @pytest.mark.parametrize("maker", SMALL_PARAMS)
    def test_truncated_file_rejected_or_valid(self, tmp_path, maker):
        fileio.write_params(tmp_path / "p.params", maker())
        raw = (tmp_path / "p.params").read_bytes()
        for pos in range(len(raw)):
            read_or_reject(tmp_path / "d.params", raw[:pos],
                           fileio.read_params, fileio.write_params)

    @given(maker=st.sampled_from(SMALL_PARAMS), pos=st.integers(0, 10**6),
           byte=st.integers(0, 255))
    @settings(max_examples=300, deadline=None)
    def test_manifest_byte_replaced_rejected_or_valid(self, fuzz_dir, maker,
                                                      pos, byte):
        fileio.write_params(fuzz_dir / "p.params", maker())
        raw = (fuzz_dir / "p.params").read_bytes()
        k = pos % (raw.index(b"\n\n") + 2)
        read_or_reject(fuzz_dir / "d.params",
                       raw[:k] + bytes([byte]) + raw[k + 1:],
                       fileio.read_params, fileio.write_params)

    @pytest.mark.parametrize("edit", [
        (b"din=5\n", b"din=5\ndin=5\n"),
        (b"\n\n", b"\nblock=sigma 0\n\n"),
        (b"\n\n", b"\nblock=extra 0\n\n"),
    ])
    def test_malformed_manifest_rejected(self, tmp_path, edit):
        path = tmp_path / "p.params"
        fileio.write_params(path, random_svdp_params(6, 5, 3, LEARNED, 0))
        path.write_bytes(path.read_bytes().replace(*edit, 1))
        with pytest.raises(FileFormatError, match="manifest is not the one"):
            fileio.read_params(path)
        assert run_main(["inspect", "--params", str(path)])[0] == 3

    @pytest.mark.parametrize("edit", [
        (b"rank=3\n", b"rank=3\nfoo=bar\n"),
        (b"rank=3\n", b"rank=3\nout_factors=6\n"),
        (b"rank=3\n", b"rank=3\nsigns=1,1\n"),
        (b"dout=6\n", b"dout= 6\n"),
        (b"dout=6\n", b"dout=+6\n"),
        (b"dout=6\n", b"dout=06\n"),
        (b"dout=6\ndin=5\n", b"din=5\ndout=6\n"),
    ])
    def test_manifest_the_writer_would_not_write_rejected(self, tmp_path,
                                                          edit):
        path = tmp_path / "p.params"
        fileio.write_params(path, random_svdp_params(6, 5, 3, LEARNED, 0))
        raw = path.read_bytes()
        assert edit[0] in raw
        path.write_bytes(raw.replace(*edit, 1))
        with pytest.raises(FileFormatError, match="manifest is not the one"):
            fileio.read_params(path)
        assert run_main(["inspect", "--params", str(path)])[0] == 3

    def test_dimension_past_the_factorization_bound_rejected(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_bytes(HUGE_DOUT_FILE)
        with pytest.raises(FileFormatError,
                           match="exceeds the factorization bound"):
            fileio.read_params(path)
        assert run_main(["inspect", "--params", str(path)])[0] == 3

    def test_tampered_schedule_rejected(self, tmp_path):
        params = random_sttp_params(16, 72, 4, LEARNED, 2)
        path = tmp_path / "p.params"
        fileio.write_params(path, params)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"rank_schedule=1,2,4",
                                     b"rank_schedule=1,1,4"))
        with pytest.raises(FileFormatError):
            fileio.read_params(path)


class TestCli:
    def test_dof_sttp_worked_instance(self, capsys):
        assert main(["dof", "--scheme", "sttp", "--dout", "16", "--din", "72",
                     "--rank", "4", "--spectrum", "learned"]) == 0
        out = capsys.readouterr().out
        assert "dof=128" in out
        assert "numel=1152" in out

    def test_dof_svdp_worked_instance(self, capsys):
        assert main(["dof", "--scheme", "svdp", "--dout", "16", "--din", "72",
                     "--rank", "4", "--spectrum", "learned"]) == 0
        assert "dof=336" in capsys.readouterr().out

    def test_dof_rank_violation_exit_2(self, capsys):
        assert main(["dof", "--scheme", "svdp", "--dout", "16", "--din", "72",
                     "--rank", "100", "--spectrum", "learned"]) == 2

    def test_factorize(self, capsys):
        assert main(["factorize", "--dim", "72"]) == 0
        assert capsys.readouterr().out.strip() == "2 2 2 3 3"

    @pytest.mark.parametrize("argv", [
        ["factorize", "--dim", "2305843009213693951"],
        ["dof", "--scheme", "sttp", "--dout", "2305843009213693951", "--din",
         "4", "--rank", "1"],
    ])
    def test_dimension_past_the_factorization_bound_exit_2(self, argv):
        code, err = run_main(argv)
        assert code == 2
        assert err.startswith("error: dimension 2305843009213693951 exceeds")

    def test_failed_allocation_exit_2(self, tmp_path, monkeypatch):
        def out_of_memory(params):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setattr(planner, "decompress", out_of_memory)
        code, err = run_main(["build", "--scheme", "sttp", "--dout", "16",
                              "--din", "72", "--rank", "4", "--seed", "0",
                              "--out", str(tmp_path / "w.mat")])
        assert code == 2
        assert err == ("error: out of memory: Unable to allocate 8.00 TiB "
                       "for an array\n")

    def test_plan_prints_708(self, capsys):
        assert main(["plan", "--scheme", "svdp", "--dout", "16", "--din", "72",
                     "--rank", "4", "--dx", "1", "--naive"]) == 0
        out = capsys.readouterr().out
        assert "total_flops=708" in out
        assert "naive_flops=11584" in out

    def test_plan_sttp_paper_instance_steps(self, capsys):
        assert main(["plan", "--scheme", "sttp", "--dout", "16", "--din", "72",
                     "--rank", "4", "--dx", "1", "--naive"]) == 0
        assert capsys.readouterr().out == """\
step 1: contract [u_core_1] x [u_core_2] -> dims=(4, 2, 2) flops=64
step 2: contract [v_core_2] x [v_core_1] -> dims=(4, 2, 2) flops=64
step 3: contract [v_core_3] x [v_core_2+v_core_1] -> dims=(4, 2, 2, 2) flops=256
step 4: contract [v_core_3+v_core_2+v_core_1] x [x] -> dims=(3, 3, 4, 1) flops=576
step 5: contract [v_core_4] x [v_core_3+v_core_2+v_core_1+x] -> dims=(3, 4, 1) flops=288
step 6: contract [v_core_5] x [v_core_4+v_core_3+v_core_2+v_core_1+x] -> dims=(4, 1) flops=96
step 7: scale [sigma] x [v_core_5+v_core_4+v_core_3+v_core_2+v_core_1+x] -> dims=(4, 1) flops=4
step 8: contract [u_core_4] x [sigma+v_core_5+v_core_4+v_core_3+v_core_2+v_core_1+x] -> dims=(4, 2, 1) flops=64
step 9: contract [u_core_3] x [u_core_4+sigma+v_core_5+v_core_4+v_core_3+v_core_2+v_core_1+x] -> dims=(4, 2, 2, 1) flops=128
step 10: contract [u_core_1+u_core_2] x [u_core_3+u_core_4+sigma+v_core_5+v_core_4+v_core_3+v_core_2+v_core_1+x] -> dims=(2, 2, 2, 2, 1) flops=128
total_flops=1668
peak_intermediate=36
naive_flops=15808
"""

    def test_plan_sttp_256_chain(self, capsys):
        # an 18-node chain diagram: the run search side of the planner
        assert main(["plan", "--scheme", "sttp", "--dout", "256", "--din",
                     "256", "--rank", "8", "--dx", "64", "--naive"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("step ") for line in lines) == 17
        assert "total_flops=611584" in lines

    def test_plan_sttp_rank_one_chain_keeps_interior_legs(self, capsys):
        # 8 nodes: the exhaustive side of the planner; the interior rank-1
        # legs show as 1s in dims
        assert main(["plan", "--scheme", "sttp", "--dout", "8", "--din", "8",
                     "--rank", "1", "--dx", "3"]) == 0
        assert capsys.readouterr().out == """\
step 1: contract [u_core_1] x [u_core_2] -> dims=(1, 2, 2) flops=8
step 2: scale [u_core_3] x [sigma] -> dims=(1, 1, 2) flops=2
step 3: contract [v_core_3] x [v_core_2] -> dims=(1, 2, 2, 1) flops=8
step 4: contract [v_core_3+v_core_2] x [x] -> dims=(1, 1, 2, 3) flops=48
step 5: contract [v_core_3+v_core_2+x] x [v_core_1] -> dims=(1, 3) flops=12
step 6: contract [u_core_3+sigma] x [v_core_3+v_core_2+v_core_1+x] -> dims=(1, 2, 3) flops=12
step 7: contract [u_core_1+u_core_2] x [u_core_3+sigma+v_core_3+v_core_2+v_core_1+x] -> dims=(2, 2, 2, 3) flops=48
total_flops=138
peak_intermediate=24
"""

    @pytest.mark.parametrize("dx", ["0", "-3"])
    def test_plan_rejects_non_positive_dx(self, capsys, dx):
        assert main(["plan", "--scheme", "sttp", "--dout", "16", "--din",
                     "72", "--rank", "4", "--dx", dx]) == 2
        captured = capsys.readouterr()
        assert "--dx" in captured.err
        assert "node dims" not in captured.err
        assert captured.out == ""

    def test_build_then_apply_matches_dense(self, tmp_path, capsys):
        w_path = tmp_path / "w.mat"
        p_path = tmp_path / "p.params"
        x_path = tmp_path / "x.mat"
        y_path = tmp_path / "y.mat"
        assert main(["build", "--scheme", "sttp", "--dout", "16", "--din",
                     "72", "--rank", "4", "--spectrum", "learned", "--seed",
                     "9", "--out", str(w_path),
                     "--params-out", str(p_path)]) == 0
        rng = np.random.default_rng(1)
        x = rng.standard_normal((72, 3))
        fileio.write_matrix(x_path, x)
        assert main(["apply", "--params", str(p_path), "--in", str(x_path),
                     "--out", str(y_path)]) == 0
        w = fileio.read_matrix(w_path)
        y = fileio.read_matrix(y_path)
        want = w @ x
        assert np.linalg.norm(y - want) <= 1e-10 * np.linalg.norm(want)

    def test_apply_malformed_file_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.params"
        bad.write_bytes(b"garbage")
        assert main(["apply", "--params", str(bad), "--in", str(bad),
                     "--out", str(tmp_path / "y.mat")]) == 3

    def test_apply_non_finite_input_exit_2(self, tmp_path, capsys):
        params, x_path = tmp_path / "p.params", tmp_path / "x.mat"
        fileio.write_params(params, random_svdp_params(4, 6, 2, LEARNED, 0))
        x = np.ones((6, 2))
        x[3, 0] = np.nan
        fileio.write_matrix(x_path, x)
        y_path = tmp_path / "y.mat"
        assert main(["apply", "--params", str(params), "--in", str(x_path),
                     "--out", str(y_path)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not y_path.exists()

    def test_apply_zero_column_input(self, tmp_path, capsys):
        params, x_path = tmp_path / "p.params", tmp_path / "x.mat"
        y_path = tmp_path / "y.mat"
        fileio.write_params(params, random_svdp_params(16, 72, 4, LEARNED, 0))
        fileio.write_matrix(x_path, np.zeros((72, 0)))
        assert main(["apply", "--params", str(params), "--in", str(x_path),
                     "--out", str(y_path)]) == 0
        assert fileio.read_matrix(y_path).shape == (16, 0)

    def test_apply_header_field_without_equals_exit_3(self, tmp_path,
                                                      capsys):
        params, x_path = tmp_path / "p.params", tmp_path / "x.mat"
        fileio.write_params(params, random_svdp_params(4, 6, 2, LEARNED, 0))
        x_path.write_bytes(b"STTPMAT v1 rows=6 cols1 dtype=f64 "
                           b"order=row-major\n" + b"\x00" * 48)
        assert main(["apply", "--params", str(params), "--in", str(x_path),
                     "--out", str(tmp_path / "y.mat")]) == 3

    @pytest.mark.parametrize("maker", [
        lambda: random_svdp_params(16, 72, 4, LEARNED, 0),
        lambda: random_sttp_params(16, 72, 4, LEARNED, 1),
    ])
    def test_apply_non_finite_params_exit_3(self, tmp_path, capsys, maker):
        params, x_path = tmp_path / "p.params", tmp_path / "x.mat"
        y_path = tmp_path / "y.mat"
        nan_payload_file(params, maker())
        fileio.write_matrix(x_path, np.ones((72, 2)))
        assert main(["apply", "--params", str(params), "--in", str(x_path),
                     "--out", str(y_path)]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not y_path.exists()

    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--scheme", "svdp", "--dout", "8", "--din",
                     "6", "--rank", "3", "--spectrum", "learned", "--seed",
                     "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "dof=33" in out

    @pytest.mark.parametrize("instance", GRADCHECK_INSTANCES)
    def test_gradcheck_instances_pass(self, instance, capsys):
        assert main(["gradcheck", *gradcheck_flags(*instance)]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("instance", GRADCHECK_INSTANCES)
    def test_gradcheck_fails_a_wrong_gradient(self, instance, capsys,
                                              monkeypatch):
        monkeypatch.setattr(cli, "FrobeniusLoss", SkewedLoss)
        assert main(["gradcheck", *gradcheck_flags(*instance)]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_fit_writes_trace_and_params(self, tmp_path, capsys):
        t_path = tmp_path / "t.mat"
        p_path = tmp_path / "p.params"
        trace_path = tmp_path / "trace.txt"
        target = decompress(init_svdp_params(6, 5, 2, LEARNED, 3))
        fileio.write_matrix(t_path, target)
        assert main(["fit", "--target", str(t_path), "--scheme", "svdp",
                     "--rank", "2", "--spectrum", "learned", "--steps", "200",
                     "--seed", "0", "--params-out", str(p_path),
                     "--out", str(trace_path)]) == 0
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0].startswith("0,")
        steps = [int(line.split(",")[0]) for line in lines]
        assert steps == list(range(len(lines)))
        losses = [float(line.split(",")[1]) for line in lines]
        assert losses[-1] < losses[0]
        back = fileio.read_params(p_path)
        assert decompress(back).shape == (6, 5)

    def test_inspect(self, tmp_path, capsys):
        p_path = tmp_path / "p.params"
        fileio.write_params(p_path, init_sttp_params(16, 72, 4, LEARNED, 0))
        assert main(["inspect", "--params", str(p_path)]) == 0
        out = capsys.readouterr().out
        assert "dof=128" in out
        assert "stable_rank=" in out
        assert "lipschitz_bound=" in out

    def test_demo_train_runs(self, capsys):
        assert main(["demo-train", "--scheme", "svdp", "--rank", "3",
                     "--spectrum", "learned", "--steps", "60", "--seed",
                     "0"]) == 0
        out = capsys.readouterr().out
        assert "max_sigma_over_run=1.0" in out

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_demo_train_rejects_non_positive_steps(self, steps, capsys):
        assert main(["demo-train", "--scheme", "svdp", "--rank", "3",
                     "--spectrum", "learned", "--steps", steps, "--seed",
                     "0"]) == 2
        assert "step" in capsys.readouterr().err

    def test_seed_required_for_randomized_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--scheme", "svdp", "--dout", "8", "--din",
                  "6", "--rank", "3", "--spectrum", "learned"])
        assert exc.value.code == 2

    def test_reproducible_output(self, tmp_path):
        out1, out2 = tmp_path / "a.mat", tmp_path / "b.mat"
        args = ["build", "--scheme", "svdp", "--dout", "8", "--din", "6",
                "--rank", "3", "--spectrum", "learned", "--seed", "4"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_fit_trace_on_stdout_when_no_out(self, tmp_path, capsys):
        t_path = tmp_path / "t.mat"
        fileio.write_matrix(t_path, decompress(init_svdp_params(6, 5, 2,
                                                                LEARNED, 3)))
        assert main(["fit", "--target", str(t_path), "--scheme", "svdp",
                     "--rank", "2", "--spectrum", "learned", "--steps", "20",
                     "--seed", "0"]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert out_lines[0].startswith("0,")
        assert all("," in line for line in out_lines)

    def test_fit_divergence_exit_4(self, tmp_path, capsys):
        t_path = tmp_path / "huge.mat"
        rng = np.random.default_rng(0)
        fileio.write_matrix(t_path, 1e7 * rng.standard_normal((6, 5)))
        assert main(["fit", "--target", str(t_path), "--scheme", "svdp",
                     "--rank", "2", "--spectrum", "learned", "--steps", "50",
                     "--seed", "0"]) == 4

    @pytest.mark.parametrize("flag", ["--lr", "--tol"])
    def test_fit_nan_flag_exit_2(self, tmp_path, capsys, flag):
        t_path = tmp_path / "t.mat"
        fileio.write_matrix(t_path, decompress(init_svdp_params(6, 5, 2,
                                                                LEARNED, 3)))
        assert main(["fit", "--target", str(t_path), "--scheme", "svdp",
                     "--rank", "2", "--steps", "20", "--seed", "0", flag,
                     "nan"]) == 2
        assert capsys.readouterr().out == ""

    def test_apply_sttp_256_matches_the_built_matrix(self, tmp_path):
        w_path, p_path = tmp_path / "w.mat", tmp_path / "p.params"
        x_path, y_path = tmp_path / "x.mat", tmp_path / "y.mat"
        assert main(["build", "--scheme", "sttp", "--dout", "256", "--din",
                     "256", "--rank", "8", "--seed", "0", "--out",
                     str(w_path), "--params-out", str(p_path)]) == 0
        x = np.random.default_rng(0).standard_normal((256, 64))
        fileio.write_matrix(x_path, x)
        assert main(["apply", "--params", str(p_path), "--in", str(x_path),
                     "--out", str(y_path)]) == 0
        want = fileio.read_matrix(w_path) @ x
        got = fileio.read_matrix(y_path)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def run_main(argv) -> tuple[int, str]:
    """Exit code and stderr of an in-process CLI call; argparse's
    ``SystemExit`` counts as its code."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def damage(path, how, value):
    """Cut ``value`` bytes off the file's end, overwrite its first byte,
    make its last payload value ``value`` or delete it."""
    raw = path.read_bytes()
    if how == "truncated":
        path.write_bytes(raw[:-min(value, len(raw))])
    elif how == "bad magic":
        path.write_bytes(b"X" + raw[1:])
    elif how == "non-finite":
        path.write_bytes(raw[:-8] + np.array(value, "<f8").tobytes())
    else:
        path.unlink()


@st.composite
def one_fault(draw):
    """A CLI call with exactly one thing wrong: ``(shape, argv, fault,
    code)``.  ``argv`` names the files of :func:`write_case` as ``@params``
    (parameters of ``shape``), ``@input`` (a matching input), ``@target``
    (the matrix of ``shape``'s parameters) and ``@huge`` (a target far out
    of reach); ``fault`` is None or ``(file, how, value)`` for
    :func:`damage`; ``code`` is the exit code the CLI documents."""
    scheme = draw(st.sampled_from(tuple(SCHEMES)))
    d_out, d_in = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    r, seed = draw(st.integers(1, min(d_out, d_in))), draw(st.integers(0, 9))
    shape = (scheme, d_out, d_in, r, seed)
    dims = ["--scheme", scheme, "--dout", str(d_out), "--din", str(d_in)]
    bad_rank = str(draw(st.one_of(st.integers(-2, 0),
                                  st.integers(min(d_out, d_in) + 1, 12))))
    fit = ["fit", "--target", "@target", "--scheme", scheme, "--rank",
           str(r), "--seed", str(seed), "--steps", "5"]
    kind = draw(st.sampled_from(("flag", "parse", "file", "diverge")))
    if kind == "flag":
        argv = draw(st.sampled_from([
            ["dof", *dims, "--rank", bad_rank],
            ["build", *dims, "--rank", bad_rank, "--seed", "0", "--out",
             "@out"],
            ["gradcheck", *dims, "--rank", bad_rank, "--seed", "0"],
            ["plan", *dims, "--rank", str(r), "--dx",
             str(draw(st.integers(-2, 0)))],
            ["demo-train", "--seed", "0", "--steps",
             str(draw(st.integers(-2, 0)))],
            fit + [draw(st.sampled_from(("--lr", "--tol", "--lambda"))),
                   draw(st.sampled_from(("nan", "inf", "-1")))],
            fit + ["--momentum", draw(st.sampled_from(("nan", "1", "-0.5")))],
        ]))
        return shape, argv, None, 2
    if kind == "parse":
        argv = draw(st.sampled_from([
            ["dof", "--scheme", "tt", "--dout", "4", "--din", "4", "--rank",
             "1"],
            ["dof", *dims, "--rank", "1.5"],
            ["gradcheck", *dims, "--rank", str(r)],
            ["no-such-command"],
        ]))
        return shape, argv, None, 2
    if kind == "diverge":
        # from the exact fit, one step of lr 1e308 takes theta past the
        # parameters' magnitude bound
        return shape, draw(st.sampled_from([
            fit + ["--lr", "1e308"],
            ["fit", "--target", "@huge", "--scheme", scheme, "--rank",
             str(r), "--seed", str(seed)],
        ])), None, 4
    file, argv = draw(st.sampled_from([
        ("params", ["apply", "--params", "@params", "--in", "@input",
                    "--out", "@out"]),
        ("params", ["inspect", "--params", "@params"]),
        ("params", ["build", "--params", "@params", "--out", "@out"]),
        ("input", ["apply", "--params", "@params", "--in", "@input",
                   "--out", "@out"]),
        ("target", fit),
    ]))
    how = draw(st.sampled_from(("truncated", "bad magic", "non-finite",
                                "missing")))
    value = draw(st.integers(1, 400) if how == "truncated" else
                 st.sampled_from((np.nan, np.inf, -np.inf)))
    # a matrix file with a non-finite value is well formed: its values
    # are out of the domain
    code = 2 if how == "non-finite" and file != "params" else 3
    return shape, argv, (file, how, value), code


def write_case(root, shape):
    scheme, d_out, d_in, r, seed = shape
    params = SCHEMES[scheme].init(d_out, d_in, r, LEARNED, seed,
                                  "noisy_identity", lam=0.0)
    paths = {name: root / name for name in ("params", "input", "target",
                                            "huge", "out")}
    fileio.write_params(paths["params"], params)
    fileio.write_matrix(paths["input"], np.ones((d_in, 2)))
    fileio.write_matrix(paths["target"], decompress(params))
    fileio.write_matrix(paths["huge"], np.full((d_out, d_in), 1e7))
    return paths


class TestCliExitCodes:
    @given(case=one_fault())
    @settings(max_examples=150, deadline=None)
    def test_one_fault_exits_with_its_documented_code(self, fuzz_dir, case):
        shape, argv, fault, want = case
        paths = write_case(fuzz_dir, shape)
        if fault is not None:
            file, how, value = fault
            damage(paths[file], how, value)
        code, err = run_main([str(paths[a[1:]]) if a.startswith("@") else a
                              for a in argv])
        assert code == want
        assert err.startswith(("error:", "usage:"))

    @pytest.mark.parametrize("command", ["build", "fit", "demo-train",
                                         "gradcheck"])
    def test_negative_seed_exits_2_naming_the_seed(self, tmp_path, command):
        dims = ["--scheme", "svdp", "--dout", "6", "--din", "4", "--rank",
                "2"]
        target = tmp_path / "t.mat"
        fileio.write_matrix(target, np.ones((6, 4)))
        argv = {"build": ["build", *dims, "--out", str(tmp_path / "w.mat")],
                "fit": ["fit", "--target", str(target), *dims[:2], "--rank",
                        "2", "--steps", "3"],
                "demo-train": ["demo-train", "--steps", "3"],
                "gradcheck": ["gradcheck", *dims]}[command]
        code, err = run_main([*argv, "--seed", "-1"])
        assert code == 2
        assert err.startswith("error:") and "seed" in err
