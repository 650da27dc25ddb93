from flowfsm import programs


def bundled_engine(name):
    config = programs.bundled_program(name)
    return programs.build_engine(config), programs.make_binder(config)


def run_rows(engine, bind, rows):
    return list(engine.run_trace(bind(row, i) for i, row in enumerate(rows)))


def test_pre_state_is_the_state_before_the_update():
    engine, bind = bundled_engine("long_flow")
    rows = [{"ts": t, "ip_src": 1, "ip_dst": 2} for t in range(6)]
    verdicts = run_rows(engine, bind, rows)
    # with G0 = 3 the fifth packet of a flow is the first marked one
    crossed = verdicts[4]
    assert (crossed.pre_state, crossed.post_state) == ("DEFAULT", "LONG")
    assert crossed.action_str == "dscp:10:fwd:1"
    assert (verdicts[5].pre_state, verdicts[5].post_state) == ("LONG", "LONG")
    # rows 0, 1, 2 are count, crossed, long
    assert engine.stats.transitions == {"DEFAULT#0": 4, "DEFAULT#1": 1, "LONG#2": 1}


def test_long_time_gap_costs_a_bounded_number_of_scans():
    engine, bind = bundled_engine("mac_learning")
    scan = engine.context.housekeep
    calls = []

    def counted(now=0):
        calls.append(now)
        assert len(calls) <= 3, "housekeeping scans grow with the time gap"
        return scan(now)

    engine.context.housekeep = counted
    rows = [
        {"ts": 0, "eth_src": 7, "eth_dst": 9, "in_port": 1},
        {"ts": 30_000_000, "eth_src": 9, "eth_dst": 7, "in_port": 2},
    ]
    learned, reply = run_rows(engine, bind, rows)
    assert learned.action_str == "flood"
    # station 7 aged out during the gap, so the reply cannot be forwarded
    assert (reply.action_str, reply.pre_state) == ("flood", "DEFAULT")
    # one scan demotes the entry, the next evicts it; the rest are skipped
    assert calls == [300, 600]
    assert engine.context.evictions == 1
