"""The eduction executable, driven through main()."""
import json
import re
import threading

import pytest

from eduction import wire
from eduction.cli import format_value, main
from eduction.lang import compile_source
from eduction.manager import LocalNodeAgent, Manager, SystemOp, serve_manager, serve_node_agent
from eduction.transport import decode_system_payload

FACT_SRC = (
    "fact where dimension d; "
    "fact = if #.d == 0 then 1 else #.d * (fact @.d (#.d - 1)); end\n"
)


@pytest.fixture
def fact_geer(tmp_path):
    src = tmp_path / "fact.ipl"
    src.write_text(FACT_SRC)
    out = tmp_path / "fact.geer"
    assert main(["compile", str(src), "-o", str(out)]) == 0
    return str(out)


class TestFormatValue:
    def test_scalars(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(42) == "42"
        assert format_value(1.5) == "1.5"
        assert format_value("hi") == "hi"

    def test_float_array(self):
        assert format_value((1.0, 2.5)) == "[1.0, 2.5]"


class TestCompile:
    def test_writes_geer(self, tmp_path, capsys):
        src = tmp_path / "p.ipl"
        src.write_text("40 + 2\n")
        assert main(["compile", str(src)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("p.geer")
        with open(out, "rb") as f:
            geer = wire.decode_geer(f.read())
        assert geer.program_id == "p"

    def test_parse_error_is_domain_error(self, tmp_path, capsys):
        src = tmp_path / "bad.ipl"
        src.write_text("if 1 then 2\n")
        assert main(["compile", str(src)]) == 2
        assert "else" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source, where",
        [("2 + 3\u00b2\n", "1:6"), ("x where dimension \u00e9; x = #.\u00e9; end\n", "1:19")],
        ids=["superscript-digit", "accented-dimension"],
    )
    def test_non_ascii_is_lex_error(self, tmp_path, capsys, source, where):
        src = tmp_path / "p.ipl"
        src.write_text(source, encoding="utf-8")
        assert main(["compile", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("LexError: unexpected character") and where in err
        assert not (tmp_path / "p.geer").exists()

    def test_int_past_64_bits_is_parse_error(self, tmp_path, capsys):
        src = tmp_path / "p.ipl"
        src.write_text("x where x = 9223372036854775808; y = x + 0; end\n")
        assert main(["compile", str(src)]) == 2
        assert "ParseError: expected an Int of 64 bits at 1:13" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["compile", str(tmp_path / "ghost.ipl")]) == 2

    def test_no_args_is_usage_error(self):
        assert main([]) == 1
        assert main(["compile"]) == 1


class TestEval:
    def test_fact_five(self, fact_geer, capsys):
        assert main(["eval", fact_geer, "fact", "--ctx", "d=5"]) == 0
        assert capsys.readouterr().out.strip() == "120"

    def test_empty_context(self, tmp_path, capsys):
        src = tmp_path / "p.ipl"
        src.write_text("6 * 7 where x = 1; end\n")
        main(["compile", str(src)])
        out = capsys.readouterr().out.strip()
        assert main(["eval", out, "x"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_bad_ctx_syntax(self, fact_geer, capsys):
        assert main(["eval", fact_geer, "fact", "--ctx", "d:5"]) == 1

    def test_unknown_identifier(self, fact_geer):
        assert main(["eval", fact_geer, "ghost"]) == 2

    def test_eval_against_remote_store(self, fact_geer, capsys):
        from eduction.store import DemandStore
        from eduction.transport import serve_store

        store = DemandStore()
        srv = serve_store(store)
        try:
            code = main(
                ["eval", fact_geer, "fact", "--ctx", "d=6", "--dst", f"127.0.0.1:{srv.port}"]
            )
            assert code == 0
            assert capsys.readouterr().out.strip() == "720"
            # results landed in the shared warehouse
            assert store.stats().computed >= 7
        finally:
            srv.stop()
            store.close()

    def test_transport_error_exit_code(self, fact_geer):
        assert main(["eval", fact_geer, "fact", "--dst", "127.0.0.1:1"]) == 3


class TestWarehouse:
    def test_sig_stats_get(self, fact_geer, capsys):
        from eduction.store import DemandStore
        from eduction.transport import serve_store

        store = DemandStore()
        srv = serve_store(store)
        addr = f"127.0.0.1:{srv.port}"
        try:
            main(["eval", fact_geer, "fact", "--ctx", "d=3", "--dst", addr])
            capsys.readouterr()

            assert main(["wh", "--dst", addr, "sig", "fact", "fact", "--ctx", "d=3"]) == 0
            key_hex = capsys.readouterr().out.strip()
            assert bytes.fromhex(key_hex)

            assert main(["wh", "--dst", addr, "get", key_hex]) == 0
            assert capsys.readouterr().out.strip() == "COMPUTED 6"

            assert main(["wh", "--dst", addr, "stats"]) == 0
            line = capsys.readouterr().out
            assert "computed=4" in line

            # unknown signature is a domain error
            other = key_hex[:-2] + ("00" if key_hex[-2:] != "00" else "01")
            assert main(["wh", "--dst", addr, "get", other]) == 2
        finally:
            srv.stop()
            store.close()


class TestPipelineCommand:
    def test_demo_small(self, capsys):
        assert main(["pipeline", "demo", "--subjects", "2", "--length", "256"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1] == "accuracy=10/10"
        # one line per test sample
        assert len(out) == 11
        assert out[0].startswith("s1-seed6-n256 label=1 top=1 dist=")

    def test_train_then_classify_local_model(self, tmp_path, capsys):
        model = str(tmp_path / "m.ts")
        code = main(
            ["pipeline", "train", "--subjects", "2", "--length", "256", "--model", model]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            ["pipeline", "classify", "--subjects", "2", "--length", "256", "--model", model]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1] == "accuracy=10/10"

    def test_classify_without_model(self, tmp_path):
        assert (
            main(
                [
                    "pipeline",
                    "classify",
                    "--subjects",
                    "2",
                    "--length",
                    "256",
                    "--model",
                    str(tmp_path / "absent.ts"),
                ]
            )
            == 2
        )


class TestNodeCommand:
    def test_standalone_tiers_run_and_exit(self, capsys):
        code = main(["node", "start", "--tiers", "dst,dwt", "--dst-port", "0", "--run-ms", "50"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("node 127.0.0.1:")
        assert ":DST" in out and ":DWT" in out

    def test_manager_allocates_the_tiers(self, tmp_path, capsys):
        log = tmp_path / "gmt.log"
        args = ["node", "start", "--tiers", "gmt,dst,dwt", "--gmt-port", "0", "--dst-port", "0", "--run-ms", "50"]
        assert main(args + ["--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"node 127\.0\.0\.1:\d+ tiers=gmt:127\.0\.0\.1:\d+,t1:DST,t2:DWT\n", out), out
        events = [decode_system_payload(p) for _, p, _ in wire.iter_frames(log.read_bytes())]
        assert [(op, ev.get("kind")) for op, ev in events] == [
            (SystemOp.REGISTER_NODE, None), (SystemOp.ALLOCATE, "DST"), (SystemOp.ALLOCATE, "DWT")
        ]

    def test_config_log_path_reaches_the_store(self, tmp_path, capsys):
        log = tmp_path / "store.log"
        config = tmp_path / "node.conf"
        config.write_text(f"log.path = {log}\n")
        args = ["node", "start", "--tiers", "dst", "--dst-port", "0", "--run-ms", "50"]
        assert main(args + ["--config", str(config)]) == 0
        assert log.exists()

    def test_unknown_tier_kind(self, capsys):
        assert main(["node", "start", "--tiers", "dst,xyz", "--run-ms", "10"]) == 1


class TestMgrCommand:
    def test_register_alloc_move_dealloc_status(self, capsys):
        mgr = Manager(heartbeat_ms=60000)
        gmt = serve_manager(mgr)
        agents = [LocalNodeAgent(), LocalNodeAgent()]
        nodes = [serve_node_agent(agent) for agent in agents]

        def mgr_cmd(*args):
            code = main(["mgr", "--gmt", f"127.0.0.1:{gmt.port}", *args])
            return code, capsys.readouterr().out.strip()

        try:
            assert mgr_cmd("register", f"127.0.0.1:{nodes[0].port}") == (0, "1")
            assert mgr_cmd("register", f"127.0.0.1:{nodes[1].port}") == (0, "2")
            assert mgr_cmd("alloc", "1", "dgt", "seq=3", "note=x") == (0, "t1")
            assert {tid: t["kind"] for tid, t in agents[0].list_tiers().items()} == {"t1": "DGT"}
            assert mgr_cmd("move", "t1", "2") == (0, "t2")
            assert (list(agents[0].list_tiers()), list(agents[1].list_tiers())) == ([], ["t2"])
            assert mgr_cmd("dealloc", "t2") == (0, "true")
            assert mgr_cmd("dealloc", "t2") == (0, "false")
            assert mgr_cmd("dealloc", "t9")[0] == 2  # TierUnknown, a domain error
            assert mgr_cmd("alloc", "1", "dgt", "novalue")[0] == 1  # a usage error
            code, out = mgr_cmd("status")
            assert code == 0
            tiers = json.loads(out)["tiers"]
            config = {"note": "x", "seq": 3}
            assert {tid: (t["node_id"], t["state"], t["config"]) for tid, t in tiers.items()} == {
                "t1": (1, "STOPPED", config), "t2": (2, "STOPPED", config)
            }
        finally:
            gmt.stop()
            mgr.close()
            for node, agent in zip(nodes, agents):
                node.stop()
                agent.close()
