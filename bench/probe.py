"""The reference probe: a fixed piece of pure-Python work that never calls taquin.

``hostspeed.py`` times it in its own process, or times this file run as a
script in a fresh interpreter (``python3 -S bench/probe.py``).  It imports
nothing, so that a fresh interpreter starts it as fast as it can start.
"""

ROUNDS = 8


def fixed_word(n: int = 150) -> tuple[int, ...]:
    """A permutation of range(n), shuffled by a fixed linear congruential generator."""
    word = list(range(n))
    state = 1
    for i in range(n - 1, 0, -1):
        state = (state * 1103515245 + 12345) % 2**31
        j = state % (i + 1)
        word[i], word[j] = word[j], word[i]
    return tuple(word)


WORD = fixed_word()


def probe_work() -> None:
    """Row-insert the fixed word into rows of tuples, ``ROUNDS`` times."""
    for _ in range(ROUNDS):
        rows: list[tuple[int, ...]] = []
        for x in WORD:
            for i, row in enumerate(rows):
                j = 0
                while j < len(row) and row[j] < x:
                    j += 1
                if j == len(row):
                    rows[i] = row + (x,)
                    break
                rows[i], x = row[:j] + (x,) + row[j + 1:], row[j]
            else:
                rows.append((x,))


if __name__ == "__main__":
    probe_work()
