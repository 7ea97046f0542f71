use dp_geometry::Coord;
use std::fmt;

/// Axis along which a distance rule is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Horizontal measurement (along a row).
    X,
    /// Vertical measurement (along a column).
    Y,
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::X => write!(f, "x"),
            Axis::Y => write!(f, "y"),
        }
    }
}

/// A single design-rule violation with its physical location.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// Two polygons closer than `space_min`.
    Space {
        /// Measurement axis.
        axis: Axis,
        /// Physical coordinate of the scan line where the gap starts.
        at: Coord,
        /// Physical coordinate of the perpendicular position (row/column
        /// start) where the gap was measured.
        cross: Coord,
        /// Measured gap.
        extent: Coord,
        /// Required minimum.
        required: Coord,
    },
    /// A shape narrower than `width_min`.
    Width {
        /// Measurement axis.
        axis: Axis,
        /// Physical coordinate of the scan line where the run starts.
        at: Coord,
        /// Physical coordinate of the perpendicular position where the run
        /// was measured.
        cross: Coord,
        /// Measured width.
        extent: Coord,
        /// Required minimum.
        required: Coord,
    },
    /// A polygon with area outside `[area_min, area_max]`.
    Area {
        /// Component label of the polygon within the topology.
        polygon: u32,
        /// Measured area in nm².
        area: i128,
        /// Allowed minimum.
        min: i128,
        /// Allowed maximum.
        max: i128,
    },
}

impl Violation {
    /// Short machine-readable rule name: `"space"`, `"width"` or `"area"`.
    pub fn rule_name(&self) -> &'static str {
        match self {
            Violation::Space { .. } => "space",
            Violation::Width { .. } => "width",
            Violation::Area { .. } => "area",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Space {
                axis,
                at,
                cross,
                extent,
                required,
            } => write!(
                f,
                "space violation along {axis} at ({at}, {cross}): {extent} < {required}"
            ),
            Violation::Width {
                axis,
                at,
                cross,
                extent,
                required,
            } => write!(
                f,
                "width violation along {axis} at ({at}, {cross}): {extent} < {required}"
            ),
            Violation::Area {
                polygon,
                area,
                min,
                max,
            } => write!(
                f,
                "area violation on polygon {polygon}: {area} outside [{min}, {max}]"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names() {
        let v = Violation::Area {
            polygon: 0,
            area: 10,
            min: 100,
            max: 200,
        };
        assert_eq!(v.rule_name(), "area");
        assert!(v.to_string().contains("polygon 0"));
    }

    #[test]
    fn display_space() {
        let v = Violation::Space {
            axis: Axis::X,
            at: 100,
            cross: 50,
            extent: 20,
            required: 60,
        };
        let s = v.to_string();
        assert!(s.contains("space") && s.contains("20 < 60"));
    }
}
