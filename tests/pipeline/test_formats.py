"""Tests for the per-application archive format descriptors."""

import pytest

from repro.bugdb import debbugs, gnats, mbox
from repro.bugdb.enums import Application
from repro.corpus.render import (
    apache_raw_archive,
    gnome_raw_archive,
    mysql_raw_archive,
)
from repro.mining.gnome import GNOME_STUDY_COMPONENTS
from repro.pipeline import FORMATS, format_for


class TestRegistry:
    def test_covers_every_application(self):
        assert set(FORMATS) == set(Application)

    def test_format_for(self):
        for application in Application:
            assert format_for(application).application is application

    def test_only_mysql_defines_index_text(self):
        assert format_for(Application.MYSQL).index_text is not None
        assert format_for(Application.APACHE).index_text is None
        assert format_for(Application.GNOME).index_text is None


class TestSerialReference:
    """``fmt.parse`` (split + per-chunk parse) is the legacy parser."""

    def test_apache_matches_parse_archive(self, apache):
        text = apache_raw_archive(apache, total_reports=300)
        assert format_for(Application.APACHE).parse(text) == gnats.parse_archive(text)

    def test_gnome_matches_parse_archive(self, gnome):
        text = gnome_raw_archive(gnome, study_components=GNOME_STUDY_COMPONENTS)
        assert format_for(Application.GNOME).parse(text) == debbugs.parse_archive(text)

    def test_mysql_matches_parse_archive(self, mysql):
        text = mysql_raw_archive(mysql, total_messages=1500)
        assert format_for(Application.MYSQL).parse(text) == mbox.parse_archive(text)


class TestCodecs:
    @pytest.mark.parametrize("application", list(Application))
    def test_record_codec_round_trips(self, application, study):
        fmt = format_for(application)
        corpus = study.corpus(application)
        text = fmt.render(corpus, 200 if application is not Application.GNOME else None)
        records = fmt.parse(text)
        assert records, "need at least one record to round-trip"
        for record in records[:25]:
            assert fmt.record_from_dict(fmt.record_to_dict(record)) == record

    def test_mysql_item_codec_round_trips_mined_reports(self, mysql):
        fmt = format_for(Application.MYSQL)
        text = fmt.render(mysql, 2000)
        result = fmt.mine(fmt.parse(text), None)
        assert result.items
        for item in result.items:
            assert fmt.item_from_dict(fmt.item_to_dict(item)) == item
