"""Every verb's exit code and stdout, replayed against `stdout_corpus.txt`."""
import math

import numpy as np
import pytest

import stdout_corpus
from mechfront.rules import SingleTaskRule


@pytest.fixture
def in_corpus_dir(tmp_path, monkeypatch):
    stdout_corpus.write_instances(str(tmp_path))
    monkeypatch.chdir(tmp_path)


def test_corpus_holds_each_command_once_in_order():
    with open(stdout_corpus.CORPUS) as f:
        headers = [line for line in f if line.startswith(stdout_corpus.HEADER)]
    assert len(headers) == len(stdout_corpus.commands())
    assert list(stdout_corpus.load()) == stdout_corpus.commands()


def test_corpus_replays_byte_for_byte(in_corpus_dir):
    stdout_corpus.replay(stdout_corpus.load())


def test_replay_names_the_command_a_one_ulp_payment_changes(in_corpus_dir, monkeypatch):
    pay, batch = SingleTaskRule.pay, SingleTaskRule.batch

    def batch_ulp_more(self, B):
        w, paid = batch(self, B)
        return w, np.nextafter(paid, np.inf)

    monkeypatch.setattr(SingleTaskRule, "pay", lambda self, low, second:
                        math.nextafter(pay(self, low, second), math.inf))
    monkeypatch.setattr(SingleTaskRule, "batch", batch_ulp_more)
    with pytest.raises(AssertionError) as failure:
        stdout_corpus.replay(stdout_corpus.load())
    assert "$ mechfront equilibria -i uniform-2.txt --mech fp\n" in str(failure.value)
