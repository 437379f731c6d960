"""Golden traces: the synthesized bytes and timestamps never drift.

Every generator and flow helper is hashed over each frame's bytes and
``repr`` of its timestamp (and its NIC port), and the CLI's stats for
a seeded campus run are hashed too. A rewrite of the frame synthesis
path (address handling, header construction, checksums, the flow
merge) must reproduce these digests exactly; a change to the traffic
itself must update them on purpose.

Regenerate after an intended traffic change with::

    PYTHONPATH=src python tests/test_traffic_golden.py
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.cli import main
from repro.traffic import (
    BurstTrafficGenerator,
    BurstWindow,
    CampusProfile,
    CampusTrafficGenerator,
    FlowSpec,
    HttpsWorkloadGenerator,
    TcpFlow,
    dns_flow,
    duplicate_across_ports,
    http_flow,
    ping_flow,
    quic_flow,
    single_syn,
    ssh_flow,
    stratosphere_trace,
    tls_flow,
    udp_flow,
)
from repro.traffic.distributions import FlowSizeModel

V4 = FlowSpec("10.1.2.3", "171.64.9.9", 45555, 443)
V6 = FlowSpec("2607:f6d0:1:2::3", "2607:f010:9::9", 50001, 443)

#: Small flows with frequent reordering, truncation and RST teardown,
#: so a short campus trace holds many of each.
PERTURBED = CampusProfile(
    single_syn_fraction=0.3, ooo_flow_fraction=0.4,
    incomplete_flow_fraction=0.3, rst_fraction=0.4,
    flow_sizes=FlowSizeModel(mu=8.5, sigma=1.0))


def _reordered_incomplete(spec):
    flow = TcpFlow(spec, start_ts=0.5, rtt=0.01, mss=700)
    flow.handshake(synack_delay=0.3)
    flow.send(True, b"q" * 1501)
    flow.send(False, bytes(range(256)) * 20)
    flow.shuffle_segments(random.Random(3))
    flow.drop_segment(random.Random(4))
    flow.idle(2.0).ack(True).rst(from_client=False)
    return flow.build()


#: name -> zero-argument callable returning the mbufs to hash.
TRACES = {
    "campus-0": lambda: CampusTrafficGenerator(0).packets(0.2, 0.05),
    "campus-17": lambda: CampusTrafficGenerator(17).packets(0.2, 0.05),
    "campus-42": lambda: CampusTrafficGenerator(42).packets(
        0.2, 0.05, start_ts=3.25),
    "campus-perturbed": lambda: CampusTrafficGenerator(
        1, PERTURBED).packets(0.2, 0.02),
    "campus-connections": lambda: CampusTrafficGenerator(5).connections(
        20, duration=0.2),
    "burst": lambda: BurstTrafficGenerator(
        3, windows=(BurstWindow(0.3, 0.2, 4.0),)).packets(0.2, 0.05),
    "https": lambda: HttpsWorkloadGenerator(
        seed=1, response_bytes=20000).packets(40, duration=0.1),
    "strato": lambda: stratosphere_trace("CTU-Normal-7", duration=60.0),
    "tls-v4-fin": lambda: tls_flow(V4, "golden.example", start_ts=1.0,
                                   appdata_bytes=20000, synack_delay=0.2),
    "tls-v6-rst": lambda: tls_flow(V6, None, selected_version=None,
                                   cipher_suite=0xC02F, teardown="rst",
                                   appdata_up_bytes=0, rng=random.Random(9)),
    "http-v4": lambda: http_flow(V4, host="h.example", uri="/x?y=1",
                                 response_bytes=5001, start_ts=0.25),
    "http-v6-open": lambda: http_flow(V6, status=404, response_bytes=0,
                                      teardown="none"),
    "ssh-v6": lambda: ssh_flow(V6, kex_bytes=3001, synack_delay=0.05),
    "dns-v4": lambda: dns_flow(FlowSpec("10.0.0.7", "8.8.8.8", 5353, 53),
                               name="a.example", rcode=3, txn_id=77),
    "dns-v6": lambda: dns_flow(FlowSpec("2001:db8::7", "2001:db8::53",
                                        5353, 53),
                               qtype="AAAA", answer="2001:db8::1"),
    "udp-odd": lambda: udp_flow(V4, payload_sizes=(1, 0, 999, 1400)),
    "udp-v6": lambda: udp_flow(V6, start_ts=7.0, gap=0.003),
    "quic-v4": lambda: quic_flow(V4, payload_sizes=(1252, 1200, 700, 33)),
    "quic-v6": lambda: quic_flow(V6, version=0xFF00001D),
    "ping": lambda: ping_flow(FlowSpec("10.9.9.9", "1.1.1.1", 77, 0),
                              count=4, start_ts=0.125),
    "single-syn": lambda: single_syn(V4, start_ts=12.5)
    + single_syn(V6, start_ts=0.1),
    "reordered-incomplete-v4": lambda: _reordered_incomplete(V4),
    "reordered-incomplete-v6": lambda: _reordered_incomplete(V6),
    "duplicated": lambda: duplicate_across_ports(
        http_flow(V4, response_bytes=3000), ports=3),
}

#: name -> (frames, sha256 over every frame, timestamp and port).
GOLDEN = {
    'burst': (664,
        '63770f9d0b4997e064eff28bf3a76039c70fe3c8e441293311a89d3bb65d1b90'),
    'campus-0': (413,
        '8933510b2780c4ce106d2207cccdf6b5b485383d002e5bad71cbb36b5c098e96'),
    'campus-17': (818,
        '6f297baf68e463fdd15699381673a0bc626097ae50cb113709eb49b78731da64'),
    'campus-42': (634,
        '9dcd3f94c1cc5d05e3e16281a9eed2791dad7bf7ef2bef854f219b9ac16e65bc'),
    'campus-connections': (492,
        '121fee85813faa81dc517b879ed11405185bfb0aae979345f6ef99221d474926'),
    'campus-perturbed': (2240,
        '59bcaead7ed04a8161d03c4bf4f531be2e42198b99b018de962c1fbc27048329'),
    'dns-v4': (2,
        '708739c06208c68ec26071b56f458f34d41ff718b4dcc5125226328d4fba2040'),
    'dns-v6': (2,
        '4d30ba79f78254fb65df62c18ced2ee83c756764b0e8c549691cde7c904b55a9'),
    'duplicated': (33,
        '7aca1a5b02664e5e14627af72aa71a0a44979b1b98f548fd213211f6c9ac43a6'),
    'http-v4': (13,
        '645481f974021b6234b6b6347c9cc6d6ab32739308010e752858b405c37ee682'),
    'http-v6-open': (5,
        'f09cc6904734d74b8d40dc1f31b29a405c80244c3e5515630106a160d369ba06'),
    'https': (136,
        'f1aa3ba9b9cf86af8cd12d8ca41503a8ad57e5ee1e84564cdc04f7025455c4de'),
    'ping': (8,
        '33631ee1d4a90b81aec052caa44503cd52efaa82722fd2163f1c4c98cb6afca7'),
    'quic-v4': (4,
        '2455480c2beb50793d81fd35784d70475868f7ae6ffa3288981d9a103006fd1f'),
    'quic-v6': (4,
        'cc669c09fb3d43dda74ad02fa547218597212dc2cb81c49dbcc60637507e2cdf'),
    'reordered-incomplete-v4': (20,
        '7c199c343d5b4ba7288be76b18d5335122f1478dc166c4dce0b8e1c82f012402'),
    'reordered-incomplete-v6': (20,
        '3eef50164b3871fb9861063551e3b109c2f7aecfd61fc21924f070549729dddc'),
    'single-syn': (2,
        'b8eb661c68bc3e2ef0f6005fb08d402cf4902db5465d259ae39370418d7851e1'),
    'ssh-v6': (14,
        'dba8382746cf6ed3a4ef580ad7e95838da27ba655ad7d7ab6d8261e29e707779'),
    'strato': (10011,
        '946a709a523e729c68d3ca2ba166df7690e4c3ef05f9ec9e2750f0721926f9b1'),
    'tls-v4-fin': (34,
        'da3360b3864d99937cf5542ad4f0b99947d9c251040f4de521791c1776c43de8'),
    'tls-v6-rst': (18,
        'a53e2330889b0ec148b1dd8118b2c28c39639ac5ded374bcf5b820463b4bdd38'),
    'udp-odd': (4,
        '7307b82714b86d0bea65f8e6bc1fe3613785362ef663b10e6b9f0a55c728217d'),
    'udp-v6': (3,
        '237f3166f333c782298c2c402ebe5e42f0caf42cf6674ef4b89eba7e5ee089b0'),
}


#: sha256 of ``--json-stats`` for one seeded ``--synthetic campus`` run,
#: sequential and over the feeder/worker backend.
CLI_ARGS = ["--synthetic", "campus", "--duration", "0.3", "--gbps", "0.1",
            "--seed", "7", "--filter", "tcp", "--datatype", "connection",
            "--print-limit", "0"]
CLI_STATS = {
    "sequential":
        "f1a349cacf41a63a109b8f3ee4d8a39409a0797f4215998685b6e76364ac1697",
    "parallel-1":
        "0089b72214a9c6d2a7fbbe288e86c769643682fc5dd18048423f9bca2965b843",
}


def digest(mbufs):
    sha = hashlib.sha256()
    for mbuf in mbufs:
        data = bytes(mbuf.data)
        sha.update(len(data).to_bytes(4, "big"))
        sha.update(data)
        sha.update(repr(mbuf.timestamp).encode())
        sha.update(mbuf.port.to_bytes(2, "big"))
    return len(mbufs), sha.hexdigest()


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_matches_golden(name):
    assert digest(TRACES[name]()) == GOLDEN[name]


@pytest.mark.parametrize("backend", sorted(CLI_STATS))
def test_cli_stats_bytes(backend, tmp_path, capsys):
    out = tmp_path / "stats.json"
    extra = ["--parallel", "1"] if backend == "parallel-1" else []
    assert main(CLI_ARGS + extra + ["--json-stats", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_STATS[backend]


if __name__ == "__main__":
    for name in sorted(TRACES):
        frames, sha = digest(TRACES[name]())
        print(f"    {name!r}: ({frames},\n        {sha!r}),")
