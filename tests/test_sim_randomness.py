"""Unit tests for the seeded random streams."""

import random

from repro.sim.randomness import SeededRandom, default_rng


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = SeededRandom(7)
        b = SeededRandom(7)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = SeededRandom(1)
        b = SeededRandom(2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_fork_streams_are_stable(self):
        parent1 = SeededRandom(3)
        parent2 = SeededRandom(3)
        child1 = parent1.fork("traffic")
        child2 = parent2.fork("traffic")
        assert [child1.random() for _ in range(5)] == [child2.random() for _ in range(5)]

    def test_fork_does_not_disturb_parent(self):
        parent = SeededRandom(5)
        baseline = SeededRandom(5)
        parent.fork("a")
        assert parent.random() == baseline.random()

    def test_fork_names_chain(self):
        rng = SeededRandom(0, name="root")
        child = rng.fork("leaf")
        assert child.name == "root/leaf"

    def test_generator_is_built_by_the_first_draw(self):
        """A fleet forks two streams per router and draws from almost none:
        an undrawn stream holds no ``random.Random``; a drawn one is
        ``random.Random(seed)``, draw for draw, whenever it is first used."""
        parent = SeededRandom(9)
        early, late = parent.fork("early"), parent.fork("late")
        assert "_rng" not in vars(parent)
        assert "_rng" not in vars(early) and "_rng" not in vars(late)
        reference = random.Random(early.seed)
        assert early.random() == reference.random()
        assert isinstance(vars(early)["_rng"], random.Random)
        assert "_rng" not in vars(late) and "_rng" not in vars(parent)
        for _ in range(5):
            assert early.randint(0, 10 ** 6) == reference.randint(0, 10 ** 6)
            assert early.expovariate(3.0) == reference.expovariate(3.0)
        assert early.nonce() == reference.getrandbits(64)
        # Drawing late, after siblings and parent were used, changes nothing.
        parent.random()
        reference = random.Random(late.seed)
        assert [late.uniform(0, 1) for _ in range(5)] == \
            [reference.uniform(0, 1) for _ in range(5)]
        assert not hasattr(late, "no_such_attribute")


class TestDraws:
    def test_uniform_within_bounds(self):
        rng = SeededRandom(1)
        for _ in range(100):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value < 3.0

    def test_randint_within_bounds(self):
        rng = SeededRandom(1)
        for _ in range(100):
            assert 1 <= rng.randint(1, 6) <= 6

    def test_chance_extremes(self):
        rng = SeededRandom(1)
        assert rng.chance(1.0) is True
        assert rng.chance(0.0) is False
        assert rng.chance(1.5) is True
        assert rng.chance(-0.5) is False

    def test_chance_probability_roughly_respected(self):
        rng = SeededRandom(11)
        hits = sum(1 for _ in range(2000) if rng.chance(0.25))
        assert 400 < hits < 600

    def test_expovariate_positive(self):
        rng = SeededRandom(2)
        for _ in range(100):
            assert rng.expovariate(10.0) > 0

    def test_choice_and_sample(self):
        rng = SeededRandom(3)
        items = ["a", "b", "c", "d"]
        assert rng.choice(items) in items
        sample = rng.sample(items, 2)
        assert len(sample) == 2
        assert set(sample).issubset(items)

    def test_shuffle_preserves_elements(self):
        rng = SeededRandom(4)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_nonce_size(self):
        rng = SeededRandom(5)
        nonce = rng.nonce(bits=64)
        assert 0 <= nonce < 2 ** 64

    def test_nonces_rarely_collide(self):
        rng = SeededRandom(6)
        nonces = {rng.nonce() for _ in range(1000)}
        assert len(nonces) == 1000

    def test_jitter_bounds(self):
        rng = SeededRandom(7)
        for _ in range(100):
            value = rng.jitter(10.0, fraction=0.1)
            assert 9.0 <= value <= 11.0
        assert rng.jitter(10.0, fraction=0.0) == 10.0

    def test_pareto_at_least_scale(self):
        rng = SeededRandom(8)
        for _ in range(100):
            assert rng.pareto(shape=2.0, scale=3.0) >= 3.0

    def test_default_rng_seed(self):
        assert default_rng().seed == 0
        assert default_rng(9).seed == 9
