"""Failure-path tests for the service tier: batch isolation, client retry,
degraded escalation.

The happy paths live in ``test_server.py`` and ``test_policy.py``; this
module injects faults — a spec whose simulation raises, a server that is
down or drops connections, an unavailable simulation tier — and checks
that each failure stays contained to the query that owns it.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from repro.exceptions import (
    ConfigurationError,
    ServiceUnavailableError,
    SimulationError,
)
from repro.experiments.grid5000 import Grid5000Settings
from repro.experiments.runner import ExperimentRunner, PointSpec
from repro.service.cache import ResultCache
from repro.service.policy import EscalationPolicy
from repro.service.server import (
    SimulationService,
    remote_burst,
    remote_query,
    remote_stats,
)

CONFIG = {"algorithm": "tsqr", "m": 65536, "n": 32, "n_sites": 2,
          "domains_per_cluster": 4}
OTHER = {**CONFIG, "domains_per_cluster": 2}


def _small_settings() -> Grid5000Settings:
    return Grid5000Settings(nodes_per_cluster=2, processes_per_node=2)


def _service(tmp_path=None, **kwargs) -> SimulationService:
    store = ResultCache(tmp_path) if tmp_path is not None else None
    runner = ExperimentRunner(_small_settings(), store=store)
    return SimulationService(runner, **kwargs)


def _free_port() -> int:
    """A port nothing is listening on (bound briefly, then released)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestBatchIsolation:
    def test_one_failing_spec_does_not_sink_its_batch_mates(
        self, tmp_path, monkeypatch
    ):
        service = _service(tmp_path, batch_window_s=0.01)
        runner = service.runner
        original = runner.run_point

        def flaky(spec: PointSpec):
            if spec.domains_per_cluster == 2:
                raise SimulationError("injected: this configuration explodes")
            return original(spec)

        monkeypatch.setattr(runner, "run_point", flaky)
        # a failing prefetch must degrade to the serial loop, not kill the batch
        monkeypatch.setattr(
            runner, "prefetch",
            lambda specs: (_ for _ in ()).throw(SimulationError("pool sank")),
        )

        async def scenario():
            return await asyncio.gather(
                service.submit(CONFIG), service.submit(OTHER),
                return_exceptions=True,
            )

        good, bad = asyncio.run(scenario())
        assert good.source == "simulated"
        assert good.point.time_s > 0
        assert isinstance(bad, SimulationError)
        assert "injected" in str(bad)
        assert service.stats.simulations == 1
        assert service.stats.failed_simulations == 1
        assert service.stats.batches == 1  # they really shared one batch
        assert not service._inflight  # the failed key retries cold next time

    def test_failed_key_recovers_once_the_fault_clears(
        self, tmp_path, monkeypatch
    ):
        service = _service(tmp_path)
        runner = service.runner
        original = runner.run_point
        monkeypatch.setattr(
            runner, "run_point",
            lambda spec: (_ for _ in ()).throw(SimulationError("transient")),
        )
        with pytest.raises(SimulationError, match="transient"):
            asyncio.run(service.submit(OTHER))
        monkeypatch.setattr(runner, "run_point", original)
        reply = asyncio.run(service.submit(OTHER))
        assert reply.source == "simulated"

    def test_protocol_reply_isolates_the_failure(self, tmp_path, monkeypatch):
        """Over TCP, the failing config answers ok=False; the server and the
        sibling query are unaffected."""
        service = _service(tmp_path)
        monkeypatch.setattr(
            service.runner, "run_point",
            lambda spec: (_ for _ in ()).throw(SimulationError("boom")),
        )

        async def scenario():
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            try:
                bad = await loop.run_in_executor(
                    None, lambda: remote_query("127.0.0.1", port, OTHER))
                pong = await loop.run_in_executor(
                    None, lambda: remote_stats("127.0.0.1", port))
                return bad, pong
            finally:
                server.close()
                await server.wait_closed()

        bad, stats = asyncio.run(scenario())
        assert bad["ok"] is False
        assert "boom" in bad["error"]
        assert stats["ok"] is True
        assert stats["stats"]["failed_simulations"] == 1


class TestClientRetry:
    def test_unreachable_server_exhausts_the_retry_budget(self):
        port = _free_port()
        with pytest.raises(ServiceUnavailableError, match=r"3 attempt\(s\)"):
            remote_query("127.0.0.1", port, CONFIG, retries=2, timeout_s=0.5)

    def test_zero_retries_means_one_attempt(self):
        port = _free_port()
        with pytest.raises(ServiceUnavailableError, match=r"1 attempt\(s\)"):
            remote_stats("127.0.0.1", port, retries=0, timeout_s=0.5)

    def test_client_knob_validation(self):
        with pytest.raises(ConfigurationError, match="retries"):
            remote_query("127.0.0.1", 1, CONFIG, retries=-1)
        with pytest.raises(ConfigurationError, match="timeout"):
            remote_stats("127.0.0.1", 1, timeout_s=0.0)

    def test_retry_survives_a_dropped_connection(self, tmp_path):
        """First connection is closed without a reply (torn request); the
        client's retry reaches the real handler and succeeds."""
        service = _service(tmp_path)
        connections = {"n": 0}

        async def scenario():
            async def handler(reader, writer):
                connections["n"] += 1
                if connections["n"] == 1:
                    writer.close()
                    await writer.wait_closed()
                    return
                await service.handle_connection(reader, writer)

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    None,
                    lambda: remote_stats("127.0.0.1", port,
                                         retries=2, timeout_s=5.0),
                )
            finally:
                server.close()
                await server.wait_closed()

        reply = asyncio.run(scenario())
        assert reply["ok"] is True
        assert connections["n"] == 2  # exactly one retry was needed

    def test_error_replies_are_answers_not_retries(self, tmp_path):
        """A ReproError reply means the server answered: the client returns
        it after a single attempt instead of re-asking."""
        service = _service(tmp_path)
        connections = {"n": 0}

        async def scenario():
            async def handler(reader, writer):
                connections["n"] += 1
                await service.handle_connection(reader, writer)

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            bad = {**CONFIG, "algorithm": "nosuch"}
            try:
                return await loop.run_in_executor(
                    None,
                    lambda: remote_query("127.0.0.1", port, bad, retries=3),
                )
            finally:
                server.close()
                await server.wait_closed()

        reply = asyncio.run(scenario())
        assert reply["ok"] is False
        assert connections["n"] == 1


class TestBurstAcceptance:
    def test_32_query_burst_runs_one_simulation(self, tmp_path):
        """Acceptance: 32 identical cold queries -> 1 simulated answer,
        31 single-flight joins, every reply identical.

        The one simulation is held until all 32 queries have entered
        ``submit``: unheld, it finishes in a few milliseconds, and queries
        still in flight on the wire would then be answered from memory.
        """
        service = _service(tmp_path)
        burst = 32
        entered = 0
        all_entered = threading.Event()
        gate_opened: list[bool] = []
        submit = service.submit
        run_point = service.runner.run_point

        async def counting_submit(config):
            nonlocal entered
            entered += 1
            if entered == burst:
                # Opened on the next loop turn, once this query has joined.
                asyncio.get_running_loop().call_soon(all_entered.set)
            return await submit(config)

        def gated_run_point(spec):
            gate_opened.append(all_entered.wait(timeout=60.0))
            return run_point(spec)

        service.submit = counting_submit
        service.runner.run_point = gated_run_point

        async def scenario():
            server = await service.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    None, remote_burst, "127.0.0.1", port, CONFIG, burst)
            finally:
                server.close()
                await server.wait_closed()

        replies = asyncio.run(scenario())
        assert gate_opened == [True]
        sources = sorted(r["source"] for r in replies)
        assert sources.count("simulated") == 1
        assert sources.count("single-flight") == 31
        assert service.runner.simulations_run == 1
        assert len({r["time_s"] for r in replies}) == 1


class TestDegradedEscalation:
    def _candidates(self, tiles):
        return [
            PointSpec(algorithm="caqr", m=2048, n=128, n_sites=1, tile_size=t)
            for t in tiles
        ]

    def test_total_outage_degrades_to_the_predictor(self):
        runner = ExperimentRunner(_small_settings())
        runner.run_point = lambda spec: (_ for _ in ()).throw(
            SimulationError("simulation tier down"))
        policy = EscalationPolicy(top_k=2, margin=10.0)
        result = policy.best_config(self._candidates((32, 64)), runner)
        assert result.best is None
        assert result.degraded is True
        assert result.simulated == ()
        assert len(result.errors) == 2
        # the predictor-only answer is still a concrete configuration
        assert result.best_candidate.spec.tile_size in (32, 64)
        assert result.best_candidate is result.ranked[0]

    def test_partial_outage_keeps_the_surviving_best_but_flags_it(self):
        runner = ExperimentRunner(_small_settings())
        original = runner.run_point

        def flaky(spec):
            if spec.tile_size == 32:
                raise SimulationError("this candidate's simulation died")
            return original(spec)

        runner.run_point = flaky
        policy = EscalationPolicy(top_k=2, margin=10.0)
        result = policy.best_config(self._candidates((32, 64)), runner)
        assert result.best is not None
        assert result.best.spec.tile_size == 64
        assert result.degraded is True  # tile 32 was never compared
        assert len(result.errors) == 1
        assert "tile=32" in result.errors[0]
        assert result.best_candidate.spec.tile_size == 64

    def test_healthy_tier_is_not_flagged(self):
        runner = ExperimentRunner(_small_settings())
        policy = EscalationPolicy(top_k=2, margin=10.0)
        result = policy.best_config(self._candidates((32, 64)), runner)
        assert result.degraded is False
        assert result.errors == ()
        assert result.best is not None

    def test_configuration_errors_still_raise(self):
        """An invalid candidate is the caller's bug, not a tier outage."""
        runner = ExperimentRunner(_small_settings())
        runner.run_point = lambda spec: (_ for _ in ()).throw(
            ConfigurationError("bad candidate"))
        policy = EscalationPolicy(top_k=1, margin=0.0)
        with pytest.raises(ConfigurationError, match="bad candidate"):
            policy.best_config(self._candidates((32,)), runner)
