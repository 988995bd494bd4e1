import numpy as np
import pytest

from crowdflow.fields import ScalarField, VectorField
from crowdflow.geometry import Grid


def test_fields_must_have_the_grid_shape():
    grid = Grid(nx=4, ny=3, h=0.25, origin=(0.0, 0.0))
    right, wrong = np.zeros(grid.shape), np.zeros((3, 4))
    with pytest.raises(ValueError, match="does not match grid"):
        ScalarField(grid, wrong)
    for x, y in ((wrong, right), (right, wrong)):
        with pytest.raises(ValueError, match="do not match the grid"):
            VectorField(grid, x, y)
