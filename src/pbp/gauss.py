"""Log-domain Gaussian constants shared across the package."""

import math

LOG_2PI = math.log(2.0 * math.pi)
