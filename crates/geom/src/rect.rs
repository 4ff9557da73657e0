//! Axis-aligned rectangles (the monitoring field).

use crate::Point;

/// An axis-aligned rectangle, used to describe the sensor deployment field
/// (the paper uses a 100×100 m² square with the base station at the center).
///
/// # Example
///
/// ```
/// use wrsn_geom::{Point, Rect};
/// let field = Rect::square(100.0);
/// assert_eq!(field.center(), Point::new(50.0, 50.0));
/// assert!(field.contains(Point::new(99.9, 0.1)));
/// assert!(!field.contains(Point::new(100.1, 50.0)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Minimum corner (inclusive).
    pub min: Point,
    /// Maximum corner (inclusive).
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners.
    ///
    /// # Panics
    ///
    /// Panics if `min` exceeds `max` in either coordinate, or if any
    /// coordinate is non-finite.
    pub fn new(min: Point, max: Point) -> Self {
        assert!(min.is_finite() && max.is_finite(), "rect corners must be finite");
        assert!(
            min.x <= max.x && min.y <= max.y,
            "rect min corner must not exceed max corner"
        );
        Rect { min, max }
    }

    /// A `side × side` square with its minimum corner at the origin.
    ///
    /// # Panics
    ///
    /// Panics if `side` is negative or non-finite.
    pub fn square(side: f64) -> Self {
        assert!(side.is_finite() && side >= 0.0, "square side must be non-negative");
        Rect::new(Point::ORIGIN, Point::new(side, side))
    }

    /// Width of the rectangle.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the rectangle.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point of the rectangle (where the paper co-locates the base
    /// station and the MCV depot).
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Returns `true` iff `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps `p` to the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(p.x.clamp(self.min.x, self.max.x), p.y.clamp(self.min.y, self.max.y))
    }
}

impl Default for Rect {
    /// The paper's default field: a 100×100 m² square at the origin.
    fn default() -> Self {
        Rect::square(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_geometry() {
        let r = Rect::square(100.0);
        assert_eq!(r.width(), 100.0);
        assert_eq!(r.height(), 100.0);
        assert_eq!(r.area(), 10_000.0);
        assert_eq!(r.center(), Point::new(50.0, 50.0));
    }

    #[test]
    fn contains_is_boundary_inclusive() {
        let r = Rect::square(10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.0001, 10.0)));
        assert!(!r.contains(Point::new(-0.0001, 5.0)));
    }

    #[test]
    fn clamp_pulls_outside_points_to_boundary() {
        let r = Rect::square(10.0);
        assert_eq!(r.clamp(Point::new(-5.0, 20.0)), Point::new(0.0, 10.0));
        assert_eq!(r.clamp(Point::new(3.0, 4.0)), Point::new(3.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "min corner")]
    fn inverted_corners_panic() {
        let _ = Rect::new(Point::new(1.0, 0.0), Point::new(0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_square_panics() {
        let _ = Rect::square(-1.0);
    }

    #[test]
    fn default_is_paper_field() {
        assert_eq!(Rect::default(), Rect::square(100.0));
    }

    #[test]
    fn zero_area_rect_is_allowed() {
        let r = Rect::square(0.0);
        assert_eq!(r.area(), 0.0);
        assert!(r.contains(Point::ORIGIN));
    }
}
