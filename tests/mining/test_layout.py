"""The ``parsed.mysql`` layout path vs. the ``mine_mysql`` oracle.

``parsed.mysql`` groups the threads and scans the four study stems once;
``mined.mysql`` and the keyword ablations narrow as filters over that
layout.  For every keyword set the filter must return the linear
oracle's items and trace: every non-empty subset of the study stems,
stems outside them (scanned; ``mutex`` hits nothing in the full archive,
``lock`` hits eleven messages), and a mixed-case stem (scanned too; the
matcher ignores case).  Small hand-built archives pin root selection and root
matching by ``message_id``.
"""

import datetime
import itertools
import json
import types

import pytest

from repro.bugdb.enums import Application
from repro.bugdb.mbox import MailMessage
from repro.mining import nodes as mining_nodes
from repro.mining.keywords import MYSQL_STUDY_KEYWORDS
from repro.mining.mysql import archive_layout, mine_mysql, mine_mysql_from_layout
from repro.pipeline import records as _records
from repro.pipeline.formats import format_for
from repro.studygraph.nodes import KEYWORD_SUBSETS

FMT = format_for(Application.MYSQL)

KEYWORD_SETS = [
    subset
    for size in range(1, len(MYSQL_STUDY_KEYWORDS) + 1)
    for subset in itertools.combinations(MYSQL_STUDY_KEYWORDS, size)
] + [("mutex",), ("lock",), ("Crash",)]


def as_compared(result):
    return [FMT.item_to_dict(item) for item in result.items], result.trace.as_rows()


@pytest.fixture(scope="module")
def parsed(study):
    """The full ~44,000-message ``parsed.mysql`` payload, built once."""
    ctx = types.SimpleNamespace(study=study)
    return mining_nodes.parsed_archive(
        ctx, {}, {"application": Application.MYSQL.value, "scale": None}
    )


@pytest.fixture(scope="module")
def messages(parsed):
    return [FMT.record_from_dict(record) for record in parsed["records"]]


@pytest.fixture(scope="module")
def oracle(messages):
    """``mine_mysql``'s linear scan per keyword set, each run once."""
    results = {}

    def mine(keywords):
        if keywords not in results:
            results[keywords] = mine_mysql(messages, keywords=keywords, use_index=False)
        return results[keywords]

    return mine


def mine_from_payload(parsed, keywords):
    """The graph's filter over a payload, counting the messages it loads."""
    records = parsed["records"]
    loaded = []

    def message_at(position):
        loaded.append(position)
        return FMT.record_from_dict(records[position])

    result = mine_mysql_from_layout(
        parsed,
        [record["message_id"] for record in records],
        message_at,
        keywords=keywords,
    )
    return result, loaded


class TestFullArchive:
    def test_layout_fields_cover_the_archive(self, parsed):
        assert parsed["record_count"] >= 44000
        positions = sorted(p for thread in parsed["threads"] for p in thread)
        assert positions == list(range(parsed["record_count"]))
        assert len(parsed["thread_roots"]) == len(parsed["threads"])
        for root, thread in zip(parsed["thread_roots"], parsed["threads"]):
            assert root in thread
        assert sorted(parsed["stem_hits"]) == sorted(MYSQL_STUDY_KEYWORDS)

    @pytest.mark.parametrize("keywords", KEYWORD_SETS, ids=",".join)
    def test_filter_equals_linear_oracle(self, parsed, oracle, keywords):
        result, _ = mine_from_payload(parsed, keywords)
        assert as_compared(result) == as_compared(oracle(keywords))
        if keywords == MYSQL_STUDY_KEYWORDS:
            assert len(result.items) == 44

    def test_study_stems_decode_only_reporting_threads(self, parsed):
        result, loaded = mine_from_payload(parsed, MYSQL_STUDY_KEYWORDS)
        reporting = dict(result.trace.as_rows())[
            "reporting threads (root matches keywords)"
        ]
        assert len(loaded) < 1000
        assert reporting <= len(loaded)

    def test_mined_node_equals_oracle_payload(self, parsed, oracle):
        payload = mining_nodes.mined_result(
            None, {"parsed.mysql": parsed}, {"application": "mysql"}
        )
        expected = _records.result_to_payload(
            oracle(MYSQL_STUDY_KEYWORDS), FMT.item_to_dict
        )
        assert {key: payload[key] for key in expected} == expected

    @pytest.mark.parametrize("label", sorted(KEYWORD_SUBSETS))
    def test_keyword_ablation_nodes_count_the_oracle_bugs(self, parsed, oracle, label):
        keywords = KEYWORD_SUBSETS[label]
        payload = mining_nodes.ablate_keywords(
            None, {"parsed.mysql": parsed}, {"keywords": keywords}
        )
        expected = oracle(tuple(keywords.split(",")))
        assert payload["unique_bugs"] == len(expected.items)


def message(message_id, day, subject, body, in_reply_to=None):
    return MailMessage(
        message_id=message_id,
        sender="user@example.com",
        date=datetime.date(1999, 3, day),
        subject=subject,
        body=body,
        in_reply_to=in_reply_to,
    )


#: Each archive names the case it pins.
HAND_BUILT = {
    # The earlier root never matches, but its message_id is shared with
    # a later matching message: the thread reports by id, not position.
    "duplicate message_id": [
        message("dup", 1, "question about tables", "how do I index this?"),
        message("other", 2, "unrelated", "all fine here"),
        message("dup", 3, "mysqld crashed", "Segmentation fault on insert"),
    ],
    # A thread of "Re:" messages with no In-Reply-To: every member is a
    # reply, so the root is the earliest message.  In the "table locks"
    # thread the earliest message is a "Re:" that matches, but the root
    # is the later non-reply, which does not.
    "Re: root without In-Reply-To": [
        message("r2", 2, "Re: server died overnight", "still dead"),
        message("r1", 1, "Re: server died overnight", "mysqld died at 3am"),
        message("x1", 4, "select speed", "a race between two clients"),
        message("x0", 5, "Re: select speed", "it crashed again"),
        message("y0", 6, "Re: table locks", "the server crashed"),
        message("y1", 7, "table locks", "how do I lock a table?"),
    ],
    # The parent id is not in the archive: no reply edge, so the reply
    # threads by subject alone and is its own root.
    "reply to unknown id": [
        message("q1", 1, "crash on shutdown", "mysqld crashes", "ghost@nowhere"),
        message("q2", 2, "Re: crash on shutdown", "me too", "q1"),
        message("z1", 3, "lost rows", "race in replication", "ghost@elsewhere"),
        message("m1", 4, "slow inserts", "a mutex is held too long"),
    ],
}


class TestHandBuiltArchives:
    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    @pytest.mark.parametrize(
        "keywords", [MYSQL_STUDY_KEYWORDS, ("crash",), ("race", "mutex"), ("DIED",)],
        ids=",".join,
    )
    def test_filter_equals_oracle(self, case, keywords):
        archive = HAND_BUILT[case]
        # Through JSON, as the layout is stored in the memo.
        layout = json.loads(json.dumps(archive_layout(archive)))
        result = mine_mysql_from_layout(
            layout,
            [m.message_id for m in archive],
            archive.__getitem__,
            keywords=keywords,
        )
        oracle = mine_mysql(archive, keywords=keywords, use_index=False)
        assert as_compared(result) == as_compared(oracle)

    def test_duplicate_id_root_reports(self):
        archive = HAND_BUILT["duplicate message_id"]
        result = mine_mysql_from_layout(
            archive_layout(archive),
            [m.message_id for m in archive],
            archive.__getitem__,
        )
        rows = dict(result.trace.as_rows())
        assert rows["reporting threads (root matches keywords)"] == 1
        assert result.items[0].synopsis == "question about tables"

    def test_all_reply_thread_roots_at_earliest(self):
        layout = archive_layout(HAND_BUILT["Re: root without In-Reply-To"])
        assert layout["threads"][0] == [1, 0]
        assert layout["thread_roots"][0] == 1
