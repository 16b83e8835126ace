"""MySQL mining: ~44,000 mailing-list messages -> 44 unique study bugs.

Section 4: "we use all the messages from the archives that matched one of
the following keywords: 'crash', 'segmentation', 'race', and 'died' ...
We then narrowed these messages to 44 unique bugs."

The miner keyword-filters messages, reconstructs threads, extracts one
candidate bug per *reporting* thread (a thread whose root message matched
the keywords -- threads where only a follow-up mentions a crash are
discussions, not reports), and reduces candidates to unique bugs.

Two entry points share that narrowing.  :func:`mine_mysql` runs every
stage over a message list and is the oracle.  The study graph splits
the keyword-independent stages off: :func:`archive_layout` groups the
threads and scans the study stems once, as a ``parsed.mysql``
by-product, and :func:`mine_mysql_from_layout` narrows any keyword set
as a filter over it, decoding only the reporting threads' messages.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Mapping, Sequence

from repro.bugdb.enums import Application, Resolution, Severity, Status, Symptom
from repro.bugdb.mbox import MailMessage
from repro.bugdb.textindex import TextIndex
from repro.bugdb.model import BugReport, Comment
from repro.mining.dedup import Deduplicator
from repro.mining.keywords import KeywordMatcher, MYSQL_STUDY_KEYWORDS
from repro.mining.pipeline import MiningResult, NarrowingTrace
from repro.mining.threads import Thread, group_threads

_VERSION_PATTERN = re.compile(r"mysql version:\s*([\w.]+)", re.IGNORECASE)
_COMPONENT_PATTERN = re.compile(r"component:\s*([\w-]+)", re.IGNORECASE)
_REPEAT_MARKER = "How-To-Repeat:"
_FIX_MARKER = re.compile(r"\bfixed\b", re.IGNORECASE)

_SYMPTOM_BY_STEM = {
    "crash": Symptom.CRASH,
    "segmentation": Symptom.CRASH,
    "died": Symptom.CRASH,
    "race": Symptom.CRASH,
}

#: The study matcher, hoisted to module level: mining constructs one per
#: reporting thread otherwise, and the archive holds tens of them.
_STUDY_MATCHER = KeywordMatcher(MYSQL_STUDY_KEYWORDS)


def message_search_text(message: MailMessage) -> str:
    """The text keyword filtering runs over: subject plus body."""
    return message.subject + "\n" + message.body


def build_message_index(messages: list[MailMessage]) -> TextIndex[int]:
    """Inverted index over an archive, keyed by message position.

    Positional ids (not message ids) keep the index mergeable across
    contiguous shards: a shard indexes its messages under their global
    archive positions and the merged index is identical to indexing the
    whole archive serially.
    """
    index: TextIndex[int] = TextIndex()
    for position, message in enumerate(messages):
        index.add(position, message_search_text(message))
    return index


def keyword_matching_messages(
    messages: list[MailMessage],
    matcher: KeywordMatcher,
    *,
    index: TextIndex[int] | None = None,
) -> list[MailMessage]:
    """Messages whose subject+body match ``matcher``, in archive order.

    With a positional ``index``, the inverted index narrows the archive
    to candidate positions first and only candidates are regex-confirmed
    -- the confirm step guarantees the hit set equals the linear scan's
    even where tokenization is looser than regex word boundaries (the
    index splits ``my_race`` into ``my``/``race``; ``\\b`` does not).
    """
    if index is None:
        return [
            message for message in messages
            if matcher.matches(message_search_text(message))
        ]
    candidates = index.search_any(matcher.keywords)
    return [
        message
        for position, message in enumerate(messages)
        if position in candidates and matcher.matches(message_search_text(message))
    ]


def report_from_thread(
    thread: Thread, *, matcher: KeywordMatcher = _STUDY_MATCHER
) -> BugReport:
    """Build a candidate bug report from a reporting thread."""
    root = thread.root
    body = root.body
    description, how_to_repeat = body, ""
    if _REPEAT_MARKER in body:
        description, _, how_to_repeat = body.partition(_REPEAT_MARKER)

    version_match = _VERSION_PATTERN.search(body)
    component_match = _COMPONENT_PATTERN.search(body)

    stems = matcher.matched_stems(root.subject + "\n" + body)
    symptom = next(
        (_SYMPTOM_BY_STEM[stem] for stem in MYSQL_STUDY_KEYWORDS if stem in stems),
        Symptom.CRASH,
    )

    comments = []
    fix_summary = ""
    for message in thread.messages:
        if message is root:
            continue
        comments.append(
            Comment(author=message.sender, date=message.date, text=message.body)
        )
        if not fix_summary and _FIX_MARKER.search(message.body):
            fix_summary = message.body

    return BugReport(
        report_id=root.message_id,
        application=Application.MYSQL,
        component=component_match.group(1) if component_match else "mysqld",
        version=version_match.group(1) if version_match else "unknown",
        date=root.date,
        reporter=root.sender,
        synopsis=root.normalized_subject,
        severity=Severity.CRITICAL,
        status=Status.CLOSED if fix_summary else Status.OPEN,
        resolution=Resolution.FIXED if fix_summary else Resolution.UNRESOLVED,
        symptom=symptom,
        description=description.strip("\n"),
        how_to_repeat=how_to_repeat.strip("\n"),
        comments=comments,
        fix_summary=fix_summary,
    )


def _narrowed(
    message_count: int,
    matching_count: int,
    thread_count: int,
    reporting_threads: list[Thread],
    deduplicator: Deduplicator | None,
) -> MiningResult[BugReport]:
    """The narrowing tail both entry points share: report, dedup, sort."""
    trace = NarrowingTrace()
    trace.record("raw messages", message_count)
    trace.record("keyword-matching messages", matching_count)
    trace.record("threads", thread_count)
    trace.record("reporting threads (root matches keywords)", len(reporting_threads))

    candidates = [report_from_thread(thread) for thread in reporting_threads]
    unique = (deduplicator or Deduplicator()).unique(candidates)
    trace.record("unique bugs", len(unique))

    # Keep stable, archive-independent ordering: by date then synopsis.
    unique.sort(key=lambda report: (report.date, report.synopsis))
    return MiningResult(items=unique, trace=trace)


def mine_mysql(
    messages: list[MailMessage],
    *,
    keywords: tuple[str, ...] = MYSQL_STUDY_KEYWORDS,
    deduplicator: Deduplicator | None = None,
    index: TextIndex[int] | None = None,
    use_index: bool = True,
) -> MiningResult[BugReport]:
    """Narrow a raw mailing-list archive to the unique study bugs.

    The oracle: every stage runs over ``messages``.  The keyword stage is
    a linear scan unless an index is passed: with a positional ``index``
    (an in-memory :class:`~repro.bugdb.textindex.TextIndex` from
    :func:`build_message_index`, or the segmented index the streamed
    parse builds), candidates are prefiltered through it and only
    candidates are confirmed against the compiled matcher, so the hit
    set is identical to the linear scan either way.  Building an index
    just to probe it once costs more than the scan, so none is built
    here.  The streamed file path calls this with its index; the study
    graph's ``mined.mysql`` and keyword ablations call
    :func:`mine_mysql_from_layout` instead.

    Args:
        messages: the parsed mbox archive.
        keywords: keyword stems to filter messages with (ablatable).
        deduplicator: duplicate-reduction strategy.
        index: prebuilt positional index over ``messages``; None scans.
        use_index: set False to force the linear scan even when an
            ``index`` is passed.
    """
    matcher = KeywordMatcher(keywords)
    matching = keyword_matching_messages(
        messages, matcher, index=index if use_index else None
    )
    # Threads are rebuilt over the *full* archive so replies that matched
    # a keyword still attach to their (non-matching) root.
    threads = group_threads(messages)
    matching_ids = {message.message_id for message in matching}
    reporting_threads = [
        thread for thread in threads if thread.root.message_id in matching_ids
    ]
    return _narrowed(
        len(messages), len(matching), len(threads), reporting_threads, deduplicator
    )


def archive_layout(messages: list[MailMessage]) -> dict[str, Any]:
    """The keyword-independent narrowing state of one archive, by position.

    Built once per archive, as a ``parsed.mysql`` by-product; every
    field is JSON-ready and holds positions into ``messages``:

    * ``threads`` -- each :func:`group_threads` thread's messages, in
      ``Thread.messages`` order;
    * ``thread_roots`` -- each thread's root, in the same thread order;
    * ``stem_hits`` -- per study stem, the messages its own matcher
      hits, in archive order.  One scan with the full study set finds
      the candidates and each stem is confirmed on those only.
    """
    position = {id(message): index for index, message in enumerate(messages)}
    threads = group_threads(messages)
    candidates = keyword_matching_messages(messages, _STUDY_MATCHER)
    return {
        "threads": [
            [position[id(message)] for message in thread.messages]
            for thread in threads
        ],
        "thread_roots": [position[id(thread.root)] for thread in threads],
        "stem_hits": {
            stem: [
                position[id(message)]
                for message in keyword_matching_messages(
                    candidates, KeywordMatcher((stem,))
                )
            ]
            for stem in MYSQL_STUDY_KEYWORDS
        },
    }


def mine_mysql_from_layout(
    layout: Mapping[str, Any],
    message_ids: Sequence[str],
    message_at: Callable[[int], MailMessage],
    *,
    keywords: tuple[str, ...] = MYSQL_STUDY_KEYWORDS,
    deduplicator: Deduplicator | None = None,
) -> MiningResult[BugReport]:
    """:func:`mine_mysql` as a filter over an :func:`archive_layout`.

    A keyword set's hits are the union of its stems' hit lists: the
    matcher is one case-insensitive regex alternation, so it hits a
    message exactly when one of its stems does.  A stem with no hit
    list (outside the study set, or spelt differently) is scanned over
    the whole archive.  Reporting threads are kept by root
    ``message_id``, as :func:`mine_mysql` keeps them, and only their
    messages are loaded.  Items and trace equal :func:`mine_mysql`'s.

    Args:
        layout: :func:`archive_layout` of the archive.
        message_ids: every message's ``message_id``, by position.
        message_at: loads the message at a position.
        keywords: keyword stems to filter messages with (ablatable).
        deduplicator: duplicate-reduction strategy.
    """
    stem_hits = layout["stem_hits"]
    hits: set[int] = set()
    unscanned = []
    for stem in keywords:
        if stem in stem_hits:
            hits.update(stem_hits[stem])
        else:
            unscanned.append(stem)
    if unscanned:
        messages = [message_at(position) for position in range(len(message_ids))]
        position_of = {id(message): index for index, message in enumerate(messages)}
        hits.update(
            position_of[id(message)]
            for message in keyword_matching_messages(
                messages, KeywordMatcher(unscanned)
            )
        )
        message_at = messages.__getitem__

    matching_ids = {message_ids[position] for position in hits}
    threads = layout["threads"]
    reporting_threads = [
        Thread(messages=tuple(message_at(position) for position in thread))
        for thread, root in zip(threads, layout["thread_roots"])
        if message_ids[root] in matching_ids
    ]
    return _narrowed(
        len(message_ids), len(hits), len(threads), reporting_threads, deduplicator
    )
