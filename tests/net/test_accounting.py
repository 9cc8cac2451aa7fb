"""Unit tests for bandwidth accounting."""

import pytest

from repro.net.accounting import BandwidthAccountant


class TestBandwidthAccountant:
    def test_charge_accumulates(self):
        accountant = BandwidthAccountant()
        accountant.charge(1, 100)
        accountant.charge(1, 50)
        accountant.charge(2, 10)
        assert accountant.bytes_out(1) == 150
        assert accountant.bytes_out(2) == 10
        assert accountant.total_bytes == 160

    def test_message_counts(self):
        accountant = BandwidthAccountant()
        accountant.charge(1, 8)
        accountant.charge(1, 8)
        assert accountant.messages_out(1) == 2
        assert accountant.total_messages == 2

    def test_unknown_node_zero(self):
        accountant = BandwidthAccountant()
        assert accountant.bytes_out(99) == 0
        assert accountant.messages_out(99) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BandwidthAccountant().charge(1, -5)

    def test_snapshot_is_copy(self):
        accountant = BandwidthAccountant()
        accountant.charge(1, 5)
        snapshot = accountant.snapshot()
        accountant.charge(1, 5)
        assert snapshot[1] == 5
        assert accountant.bytes_out(1) == 10
