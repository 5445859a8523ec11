"""Fixture: seeded RL002 violations (leaked creation, attach-side
unlink).  Never imported — parsed by reprolint only."""


def leak(create_block, nbytes):
    """Creates a block with no paired teardown on any exit path."""
    block = create_block(nbytes)  # seeded: RL002 unpaired creation
    size = block.size
    return size


def destroy(attach_block, name):
    """Unlinks a block it merely attached to."""
    client = attach_block(name)
    client.unlink()  # seeded: RL002 attach-side unlink
    client.close()
