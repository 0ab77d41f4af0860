"""Tests for the extension features: CSE, array partitioning, graph
analysis, generated main.c, and the CLI."""

import numpy as np
import pytest

from repro.hls import synthesize_function
from repro.hls.cparse import parse_c
from repro.hls.interfaces import array_partition, pipeline
from repro.hls.interp import run_function
from repro.hls.lower import lower_function
from repro.hls.passes import cse, dce, forward_slots
from repro.hls.sema import analyze
from repro.htg import HTG, Task
from repro.htg.analysis import (
    acceleration_candidates,
    critical_path,
    parallelism_profile,
    to_networkx,
)
from repro.util.errors import HlsError, ReproError


def compile_fn(src, name):
    return lower_function(analyze(parse_c(src)), name)


def count_ops(fn, opcode):
    return sum(1 for b in fn.blocks for op in b.ops if op.opcode == opcode)


class TestCse:
    def test_duplicate_expression_merged(self):
        fn = compile_fn("int f(int a, int b) { return (a + b) * (a + b); }", "f")
        forward_slots(fn)
        cse(fn)
        dce(fn)
        assert count_ops(fn, "add") == 1
        assert run_function(fn, 3, 4) == 49

    def test_commutative_matching(self):
        fn = compile_fn("int f(int a, int b) { return (a + b) + (b + a); }", "f")
        forward_slots(fn)
        cse(fn)
        dce(fn)
        # (a+b) and (b+a) merge; one more add combines them.
        assert count_ops(fn, "add") == 2
        assert run_function(fn, 5, 6) == 22

    def test_different_preds_not_merged(self):
        fn = compile_fn(
            "int f(int a, int b) { return (a < b ? 1 : 0) + (a > b ? 1 : 0); }", "f"
        )
        forward_slots(fn)
        cse(fn)
        assert count_ops(fn, "cmp") == 2

    def test_semantics_preserved_with_stores(self):
        src = """
        void f(int a[8], int out[8]) {
            for (int i = 0; i < 8; i++) out[i] = (a[i] * 3) + (a[i] * 3);
        }
        """
        res = synthesize_function(src, "f")
        a = np.arange(8, dtype=np.int32)
        out = np.zeros(8, dtype=np.int32)
        res.run(a, out)
        assert (out == a * 6).all()


class TestArrayPartition:
    LUT_SRC = """
    int f(int idx) {
        int lut[16];
        for (int i = 0; i < 16; i++) lut[i] = i * 3;
        int acc = 0;
        for (int k = 0; k < 4; k++) acc += lut[(idx + k) & 15];
        return acc;
    }
    """

    def test_complete_removes_bram(self):
        src = """
        void h(unsigned char img[1024], int out[1024]) {
            int local[256];
            for (int i = 0; i < 256; i++) local[i] = 0;
            for (int i = 0; i < 1024; i++) local[img[i]] += 1;
            for (int i = 0; i < 1024; i++) out[i] = local[img[i] & 255];
        }
        """
        base = synthesize_function(src, "h")
        part = synthesize_function(src, "h", [array_partition("h", "local")])
        assert base.resources.bram18 == 1
        assert part.resources.bram18 == 0
        assert part.resources.ff > base.resources.ff  # registers instead

    # Four lut reads per iteration: port-bound at 2 BRAM ports.
    PORT_BOUND_SRC = """
    void g(int idx[16], int out[16]) {
        int lut[16];
        for (int i = 0; i < 16; i++) lut[i] = i * 3;
        for (int k = 0; k < 16; k++) {
            int j = idx[k] & 15;
            out[k] = lut[j] + lut[(j + 1) & 15]
                   + lut[(j + 2) & 15] + lut[(j + 3) & 15];
        }
    }
    """

    def test_partition_improves_pipelined_ii(self):
        base = synthesize_function(self.PORT_BOUND_SRC, "g", [pipeline("g", "k")])
        part = synthesize_function(
            self.PORT_BOUND_SRC,
            "g",
            [pipeline("g", "k"), array_partition("g", "lut")],
        )

        def ii_of(res):
            return max(ii for _, _, ii in res.latency.loops.values() if ii)

        assert ii_of(base) >= 2  # 4 reads over 2 ports
        assert ii_of(part) < ii_of(base)
        assert part.latency.cycles < base.latency.cycles

    def test_semantics_unchanged(self):
        base = synthesize_function(self.LUT_SRC, "f")
        part = synthesize_function(self.LUT_SRC, "f", [array_partition("f", "lut")])
        for idx in (0, 5, 15):
            assert base.run(idx) == part.run(idx)

    def test_unknown_array_rejected(self):
        with pytest.raises(HlsError, match="unknown array"):
            synthesize_function(
                "int f(int a) { return a; }", "f", [array_partition("f", "zz")]
            )

    def test_bad_kind_rejected(self):
        with pytest.raises(HlsError, match="kind"):
            array_partition("f", "a", kind="diagonal")

    def test_tcl_rendering(self):
        d = array_partition("f", "lut", kind="cyclic", factor=4)
        assert d.to_tcl() == (
            'set_directive_array_partition -type cyclic -factor 4 "f" lut'
        )
        c = array_partition("f", "lut")
        assert "-type complete" in c.to_tcl()


class TestLoopLabels:
    LABELED = """
    void f(int a[64], int out[64]) {
        INIT: for (int i = 0; i < 64; i++) out[i] = 0;
        MAIN: for (int i = 0; i < 64; i++) out[i] = a[i] * 2;
    }
    """

    def test_label_targets_one_loop(self):
        from repro.hls.interfaces import pipeline as pipe

        both = synthesize_function(self.LABELED, "f", [pipe("f", "i")])
        one = synthesize_function(self.LABELED, "f", [pipe("f", "MAIN")])
        piped_loops = [
            header for header, (_, _, ii) in one.latency.loops.items() if ii is not None
        ]
        assert len(piped_loops) == 1
        piped_both = [
            header for header, (_, _, ii) in both.latency.loops.items() if ii is not None
        ]
        assert len(piped_both) == 2  # ivar 'i' matches both loops

    def test_label_recorded(self):
        from repro.hls.cparse import parse_c
        from repro.hls.lower import lower_function
        from repro.hls.sema import analyze

        fn = lower_function(analyze(parse_c(self.LABELED)), "f")
        labels = {lp.label for lp in fn.loops}
        assert labels == {"INIT", "MAIN"}

    def test_labeled_while(self):
        src = """
        int f(int n) {
            int c = 0;
            SPIN: while (n > 1) { n = n >> 1; c++; }
            return c;
        }
        """
        from repro.hls.cparse import parse_c
        from repro.hls.lower import lower_function
        from repro.hls.sema import analyze
        from repro.hls.interp import run_function

        fn = lower_function(analyze(parse_c(src)), "f")
        assert any(lp.label == "SPIN" for lp in fn.loops)
        assert run_function(fn, 16) == 4

    def test_unknown_label_still_raises(self):
        from repro.hls.interfaces import pipeline as pipe
        from repro.util.errors import HlsError

        with pytest.raises(HlsError, match="no loop"):
            synthesize_function(self.LABELED, "f", [pipe("f", "GHOST")])


def diamond_htg():
    htg = HTG("d")
    htg.add(Task("src", outputs=("x",), sw_cycles=10, io=True))
    htg.add(Task("a", inputs=("x",), outputs=("y",), sw_cycles=100, c_source="//"))
    htg.add(Task("b", inputs=("x",), outputs=("z",), sw_cycles=30, c_source="//"))
    htg.add(Task("sink", inputs=("y", "z"), sw_cycles=10, io=True))
    htg.add_edge("src", "a")
    htg.add_edge("src", "b")
    htg.add_edge("a", "sink")
    htg.add_edge("b", "sink")
    return htg


class TestAnalysis:
    def test_to_networkx(self):
        g = to_networkx(diamond_htg())
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 4
        assert g.nodes["a"]["cost"] == 100
        assert g.nodes["src"]["kind"] == "io"

    def test_critical_path(self):
        cp = critical_path(diamond_htg())
        assert cp.nodes == ("src", "a", "sink")
        assert cp.length == 120

    def test_critical_path_with_override(self):
        cp = critical_path(diamond_htg(), cost={"b": 500})
        assert cp.nodes == ("src", "b", "sink")

    def test_parallelism_profile(self):
        profile = parallelism_profile(diamond_htg())
        assert profile == {0: 1, 1: 2, 2: 1}

    def test_acceleration_candidates(self):
        ranked = acceleration_candidates(diamond_htg())
        names = [n for n, _ in ranked]
        assert names[0] == "a"  # most costly AND on the critical path
        assert "src" not in names  # I/O tasks excluded
        assert "sink" not in names


class TestMainApp:
    def test_main_c_contents(self, fig4_system):
        from repro.swgen.mainapp import generate_main_c

        text = generate_main_c(fig4_system)
        assert 'openDMA("/dev/axidma0")' in text
        assert "MUL_set_A(" in text
        assert "MUL_start();" in text
        # Every hardware interaction runs under the retry ladder:
        # bounded waits, a reset between attempts, software fallback.
        assert "MUL_wait_timeout(ACCEL_TIMEOUT)" in text
        assert "MUL_reset();" in text
        assert "falling back to software" in text
        assert "readDMA_timeout(dma0" in text
        assert "writeDMA_timeout(dma0" in text
        assert "resetDMA(dma0)" in text
        # The read is armed before the write is issued.
        assert text.index("readDMA_timeout(dma0") < text.index(
            "writeDMA_timeout(dma0"
        )

    def test_main_c_in_image(self, fig4_system):
        from repro.soc import run_synthesis
        from repro.swgen import assemble_image

        image = assemble_image(fig4_system, run_synthesis(fig4_system.design))
        assert "main.c" in image.sources


class TestCli:
    @pytest.fixture()
    def workspace(self, tmp_path):
        design = tmp_path / "design.tg"
        design.write_text(
            'object demo extends App {\n'
            "  tg nodes;\n"
            '    tg node "DOUBLE" is "in" is "out" end;\n'
            "  tg end_nodes;\n"
            "  tg edges;\n"
            "    tg link 'soc to (\"DOUBLE\", \"in\") end;\n"
            "    tg link (\"DOUBLE\", \"out\") to 'soc end;\n"
            "  tg end_edges;\n"
            "}\n"
        )
        srcdir = tmp_path / "src"
        srcdir.mkdir()
        (srcdir / "DOUBLE.c").write_text(
            "void DOUBLE(int in[32], int out[32])"
            " { for (int i = 0; i < 32; i++) out[i] = in[i] * 2; }"
        )
        return tmp_path

    def test_check(self, workspace, capsys):
        from repro.cli import main

        assert main(["check", str(workspace / "design.tg")]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_build(self, workspace, capsys):
        from repro.cli import main

        code = main(
            [
                "build",
                str(workspace / "design.tg"),
                "--sources",
                str(workspace / "src"),
                "--out",
                str(workspace / "ws"),
            ]
        )
        assert code == 0
        assert (workspace / "ws" / "vivado" / "system.tcl").exists()
        assert "bitstream" in capsys.readouterr().out

    def test_build_missing_source(self, workspace, capsys):
        from repro.cli import main

        (workspace / "src" / "DOUBLE.c").unlink()
        code = main(
            [
                "build",
                str(workspace / "design.tg"),
                "--sources",
                str(workspace / "src"),
            ]
        )
        assert code == 2
        assert "missing C sources" in capsys.readouterr().err

    def test_otsu(self, capsys):
        from repro.cli import main

        assert main(["otsu", "--arch", "1", "--size", "16x16"]) == 0
        out = capsys.readouterr().out
        assert "bit-exact" in out

    @pytest.mark.parametrize("command", ["otsu", "simbench", "dse", "crashcheck"])
    @pytest.mark.parametrize("size", ["16xq", "0x16", "-4x4", "16x0"])
    def test_bad_size_is_a_usage_error(self, command, size, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([command, f"--size={size}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "argument --size" in err

    def test_image_too_large_for_16bit_bins(self, capsys):
        from repro.cli import main

        assert main(["otsu", "--arch", "4", "--size", "256"]) == 2
        assert "error: halfProbability's 16-bit histogram" in capsys.readouterr().err

    def test_simulate_seed_flag(self, workspace, capsys):
        from repro.cli import main

        code = main(
            [
                "simulate",
                str(workspace / "design.tg"),
                "--sources",
                str(workspace / "src"),
                "--seed",
                "5",
            ]
        )
        assert code == 0
        assert "seed 5" in capsys.readouterr().out

    def test_faultcheck_command_is_deterministic(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "faultcheck", "--scenarios", "6", "--seed", "3",
            "--arches", "1,4", "--size", "16x16",
        ]
        code = main(argv + ["--digest-out", str(tmp_path / "d1.txt")])
        assert code == 0
        out = capsys.readouterr().out
        assert "escaped=0" in out
        assert "campaign digest:" in out
        code = main(argv + ["--digest-out", str(tmp_path / "d2.txt")])
        assert code == 0
        assert (tmp_path / "d1.txt").read_text() == (
            tmp_path / "d2.txt"
        ).read_text()

    def test_experiments_command(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["experiments", "--out", str(tmp_path / "exp"), "--width", "16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert (tmp_path / "exp" / "table2.txt").exists()
        assert (tmp_path / "exp" / "fig7_filtered.pgm").exists()
        assert (tmp_path / "exp" / "fig10_arch4.dot").exists()

    def test_report_summary_render(self, workspace):
        import numpy as np

        from repro.dsl import parse_dsl
        from repro.flow import autosimulate, run_flow

        graph = parse_dsl((workspace / "design.tg").read_text())
        sources = {"DOUBLE": (workspace / "src" / "DOUBLE.c").read_text()}
        flow = run_flow(graph, sources)
        result = autosimulate(flow)
        text = result.report.summary()
        assert "execution:" in text
        assert "pipeline" in text

    def test_otsu_with_real_image(self, tmp_path, capsys):
        import numpy as np

        from repro.apps.image import read_pgm, synthetic_scene, write_ppm
        from repro.cli import main

        scene = tmp_path / "scene.ppm"
        write_ppm(scene, synthetic_scene(24, 16, seed=3))
        out = tmp_path / "bin.pgm"
        code = main(
            ["otsu", "--arch", "1", "--image", str(scene), "--save", str(out)]
        )
        assert code == 0
        assert "bit-exact" in capsys.readouterr().out
        binary = read_pgm(out)
        assert binary.shape == (16, 24)
        assert set(np.unique(binary)) <= {0, 255}

    def test_old_backend_flag(self, workspace):
        from repro.cli import main

        code = main(
            [
                "build",
                str(workspace / "design.tg"),
                "--sources",
                str(workspace / "src"),
                "--out",
                str(workspace / "ws2"),
                "--backend",
                "2014.2",
            ]
        )
        assert code == 0
        tcl = (workspace / "ws2" / "vivado" / "system.tcl").read_text()
        assert "startgroup" in tcl
