"""Live-kernel variable reordering: pause, reorder, continue."""

import itertools

import pytest

import repro
from repro.errors import BddError
from tests.bdd_cores import reference_core
from tests.conftest import run_source

SRC = """
    module tb; reg clk; reg [1:0] d, q; reg [4:0] acc;
      initial begin
        clk = 0; acc = 0;
        repeat (3) begin
          d = $random;
          #5 clk = 1;
          #5 clk = 0;
        end
        $finish;
      end
      always @(posedge clk) begin
        q <= d;
        acc <= acc + d[0];
      end
    endmodule
"""


def final_table(sim, net, nvars):
    value = sim.value(net)
    mgr = sim.mgr
    name_of = {i: mgr.var_name(i) for i in range(mgr.var_count)}
    table = {}
    # key assignments by *variable name* so tables are order-independent
    for bits in itertools.product([False, True], repeat=nvars):
        by_level = dict(enumerate(bits))
        by_name = tuple(sorted(
            (name_of[level], bit) for level, bit in by_level.items()
        ))
        # build assignment in this manager's level space
        level_of = {name: level for level, name in name_of.items()}
        assignment = {level_of[name]: bit for name, bit in by_name}
        table[by_name] = value.substitute(assignment).to_verilog_bits()
    return table


class TestReorderMidRun:
    def test_results_unchanged_after_reorder(self):
        baseline = repro.open_sim(SRC)
        baseline.run(until=200)

        paused = repro.open_sim(SRC)
        paused.run(until=33)  # mid-run: waiters + pending events live
        nvars = paused.mgr.var_count
        assert nvars > 0
        order = list(reversed(range(nvars)))
        paused.kernel.reorder(order)
        paused.run(until=200)

        assert paused.mgr.var_count == baseline.mgr.var_count
        n = baseline.mgr.var_count
        for net in ("q", "acc"):
            assert final_table(paused, net, n) == \
                final_table(baseline, net, n)

    def test_reorder_preserves_violations(self):
        sim = repro.open_sim("""
            module tb; reg [3:0] a;
              initial begin
                a = $random;
                #5;
                if (a == 11) $error;
              end
            endmodule
        """)
        sim.run(until=2)
        sim.kernel.reorder([3, 2, 1, 0])
        result = sim.run()
        assert len(result.violations) == 1
        concrete = sim.resimulate(result.violations[0])
        assert concrete.violations
        assert concrete.value("a").to_int() == 11

    def test_identity_reorder_is_noop_semantically(self):
        sim = repro.open_sim(SRC)
        sim.run(until=33)
        before = sim.value("acc")
        bits_before = [
            (sim.mgr.to_expr(a), sim.mgr.to_expr(b)) for a, b in before.bits
        ]
        sim.kernel.reorder(list(range(sim.mgr.var_count)))
        after = sim.value("acc")
        bits_after = [
            (sim.mgr.to_expr(a), sim.mgr.to_expr(b)) for a, b in after.bits
        ]
        assert bits_before == bits_after

    def test_bad_order_rejected(self):
        sim = repro.open_sim(SRC)
        sim.run(until=33)
        with pytest.raises(BddError):
            sim.kernel.reorder([0])

    def test_reorder_with_memories_and_assertions(self):
        sim = repro.open_sim("""
            module tb; reg [1:0] a; reg [3:0] m [0:3]; reg goal;
              initial begin
                goal = 0;
                $assert(goal == 0);
                a = $random;
                m[a] = 4'hC;
                #5;
                if (m[a] !== 4'hC) goal = 1;
                #5;
              end
            endmodule
        """)
        sim.run(until=2)
        sim.kernel.reorder([1, 0])
        result = sim.run()
        assert not result.violations


# The same tests on the pure-Python reference core.
TestReorderMidRunReferenceCore = reference_core(TestReorderMidRun)
