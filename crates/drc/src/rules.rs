use std::fmt;

use dp_geometry::Coord;

/// A set of design rules (paper Fig. 3).
///
/// All distances are in nanometres, areas in nm². Runs and polygons that
/// touch the tile border can be exempted (`exempt_border`, default `true`)
/// because the neighbouring geometry in the adjacent tile is unknown — the
/// same convention a tile-mode KLayout deck uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignRules {
    space_min: Coord,
    width_min: Coord,
    area_min: i128,
    area_max: i128,
    exempt_border: bool,
}

/// Error produced when a rule set is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RulesError {
    /// A minimum distance is not positive.
    NonPositiveDistance {
        /// Rule name.
        rule: &'static str,
        /// Offending value.
        value: Coord,
    },
    /// The area interval is empty or starts below zero.
    BadAreaRange {
        /// Lower bound supplied.
        min: i128,
        /// Upper bound supplied.
        max: i128,
    },
}

impl fmt::Display for RulesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RulesError::NonPositiveDistance { rule, value } => {
                write!(f, "{rule} = {value} must be positive")
            }
            RulesError::BadAreaRange { min, max } => {
                write!(f, "area range [{min}, {max}] is empty or negative")
            }
        }
    }
}

impl std::error::Error for RulesError {}

impl DesignRules {
    /// Starts building a rule set.
    pub fn builder() -> DesignRulesBuilder {
        DesignRulesBuilder::default()
    }

    /// The default rule set used throughout the reproduction's experiments:
    /// `space_min = width_min = 60 nm`, polygon area within
    /// `[4 000, 1 500 000] nm²`, border shapes exempt. These values are in
    /// proportion to a 2048 nm tile roughly as a 14 nm-node metal layer's
    /// rules are to its clip size.
    pub fn standard() -> Self {
        DesignRules {
            space_min: 60,
            width_min: 60,
            area_min: 4_000,
            area_max: 1_500_000,
            exempt_border: true,
        }
    }

    /// The "larger `space_min`" variant of paper Fig. 8(b).
    pub fn larger_space() -> Self {
        DesignRules {
            space_min: 180,
            ..Self::standard()
        }
    }

    /// The "smaller `area_max`" variant of paper Fig. 8(c).
    pub fn smaller_area() -> Self {
        DesignRules {
            area_max: 200_000,
            ..Self::standard()
        }
    }

    /// Minimum polygon-to-polygon spacing.
    pub fn space_min(&self) -> Coord {
        self.space_min
    }

    /// Minimum shape width.
    pub fn width_min(&self) -> Coord {
        self.width_min
    }

    /// Minimum polygon area.
    pub fn area_min(&self) -> i128 {
        self.area_min
    }

    /// Maximum polygon area.
    pub fn area_max(&self) -> i128 {
        self.area_max
    }

    /// Whether border-touching runs/polygons are exempt from checks.
    pub fn exempt_border(&self) -> bool {
        self.exempt_border
    }
}

impl Default for DesignRules {
    fn default() -> Self {
        Self::standard()
    }
}

impl fmt::Display for DesignRules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "space>={} width>={} area in [{}, {}]{}",
            self.space_min,
            self.width_min,
            self.area_min,
            self.area_max,
            if self.exempt_border {
                " (border exempt)"
            } else {
                ""
            }
        )
    }
}

/// Builder for [`DesignRules`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct DesignRulesBuilder {
    space_min: Coord,
    width_min: Coord,
    area_min: i128,
    area_max: i128,
    exempt_border: bool,
}

impl Default for DesignRulesBuilder {
    fn default() -> Self {
        let std = DesignRules::standard();
        DesignRulesBuilder {
            space_min: std.space_min,
            width_min: std.width_min,
            area_min: std.area_min,
            area_max: std.area_max,
            exempt_border: std.exempt_border,
        }
    }
}

impl DesignRulesBuilder {
    /// Sets the minimum spacing rule.
    pub fn space_min(mut self, v: Coord) -> Self {
        self.space_min = v;
        self
    }

    /// Sets the minimum width rule.
    pub fn width_min(mut self, v: Coord) -> Self {
        self.width_min = v;
        self
    }

    /// Sets the polygon area range `[min, max]`.
    pub fn area_range(mut self, min: i128, max: i128) -> Self {
        self.area_min = min;
        self.area_max = max;
        self
    }

    /// Sets whether border-touching geometry is exempt.
    pub fn exempt_border(mut self, v: bool) -> Self {
        self.exempt_border = v;
        self
    }

    /// Validates and builds the rule set.
    ///
    /// # Errors
    ///
    /// Returns [`RulesError`] when a distance is non-positive or the area
    /// range is empty.
    pub fn build(self) -> Result<DesignRules, RulesError> {
        if self.space_min <= 0 {
            return Err(RulesError::NonPositiveDistance {
                rule: "space_min",
                value: self.space_min,
            });
        }
        if self.width_min <= 0 {
            return Err(RulesError::NonPositiveDistance {
                rule: "width_min",
                value: self.width_min,
            });
        }
        if self.area_min < 0 || self.area_max < self.area_min {
            return Err(RulesError::BadAreaRange {
                min: self.area_min,
                max: self.area_max,
            });
        }
        Ok(DesignRules {
            space_min: self.space_min,
            width_min: self.width_min,
            area_min: self.area_min,
            area_max: self.area_max,
            exempt_border: self.exempt_border,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_standard() {
        let built = DesignRules::builder().build().unwrap();
        assert_eq!(built, DesignRules::standard());
        assert_eq!(DesignRules::default(), DesignRules::standard());
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            DesignRules::builder().space_min(0).build(),
            Err(RulesError::NonPositiveDistance {
                rule: "space_min",
                ..
            })
        ));
        assert!(matches!(
            DesignRules::builder().width_min(-5).build(),
            Err(RulesError::NonPositiveDistance {
                rule: "width_min",
                ..
            })
        ));
        assert!(matches!(
            DesignRules::builder().area_range(100, 50).build(),
            Err(RulesError::BadAreaRange { .. })
        ));
    }

    #[test]
    fn presets_differ_as_figure_8_describes() {
        let normal = DesignRules::standard();
        assert!(DesignRules::larger_space().space_min() > normal.space_min());
        assert!(DesignRules::smaller_area().area_max() < normal.area_max());
    }

    #[test]
    fn display_mentions_all_rules() {
        let s = DesignRules::standard().to_string();
        assert!(s.contains("space") && s.contains("width") && s.contains("area"));
    }
}
