//! Attribute schemas: mapping attribute domains to rank domains (§2).
//!
//! "In practice, each dimension of `A` is the rank domain of a
//! corresponding attribute of the data cube. … it is desirable that there
//! exists a simple function mapping the attribute domain to the rank
//! domain. If such function does not exist, then additional storage and
//! time overhead for lookup tables or hash tables may be required."
//!
//! [`AttrDomain`] provides both cases: linear integer domains (constant
//! time, no storage) and categorical domains (a lookup table). A
//! [`CubeSchema`] names each dimension and offers a builder that turns
//! attribute-level predicates into a [`RangeQuery`] over rank indices.

use crate::{DimSelection, RangeQuery};
use olap_array::{ArrayError, Shape};
use std::collections::HashMap;

/// The domain of one functional attribute and its rank mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrDomain {
    /// A contiguous integer domain `[min, max]`; rank = value − min.
    Integer {
        /// Smallest attribute value.
        min: i64,
        /// Largest attribute value.
        max: i64,
    },
    /// An enumerated domain; rank = position in the list. Lookup is by
    /// hash table, the overhead the paper warns about.
    Categorical(Vec<String>),
}

impl AttrDomain {
    /// Number of rank values.
    pub fn cardinality(&self) -> usize {
        match self {
            AttrDomain::Integer { min, max } => (max - min + 1) as usize,
            AttrDomain::Categorical(values) => values.len(),
        }
    }
}

/// One named attribute of a cube.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// The attribute name (e.g. `"age"`).
    pub name: String,
    /// Its domain and rank mapping.
    pub domain: AttrDomain,
}

/// Errors from schema construction and attribute-level queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// No attribute with the given name.
    UnknownAttribute(String),
    /// A value outside the attribute's domain.
    ValueOutOfDomain {
        /// Attribute name.
        attr: String,
        /// Display form of the offending value.
        value: String,
    },
    /// A categorical attribute was queried with an integer range (or an
    /// integer attribute with a category).
    WrongKind {
        /// Attribute name.
        attr: String,
    },
    /// An inverted range (`lo > hi`).
    InvertedRange {
        /// Attribute name.
        attr: String,
    },
    /// Underlying shape error.
    Array(ArrayError),
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::UnknownAttribute(a) => write!(f, "unknown attribute {a:?}"),
            SchemaError::ValueOutOfDomain { attr, value } => {
                write!(f, "value {value} outside the domain of {attr:?}")
            }
            SchemaError::WrongKind { attr } => {
                write!(f, "predicate kind does not match the domain of {attr:?}")
            }
            SchemaError::InvertedRange { attr } => {
                write!(f, "inverted range on {attr:?}")
            }
            SchemaError::Array(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl From<ArrayError> for SchemaError {
    fn from(e: ArrayError) -> Self {
        SchemaError::Array(e)
    }
}

/// A cube schema: an ordered list of named attributes whose cardinalities
/// define the cube shape.
///
/// # Examples
///
/// ```
/// use olap_query::CubeSchema;
///
/// // The §1 insurance schema.
/// let schema = CubeSchema::new(vec![
///     CubeSchema::integer("age", 1, 100),
///     CubeSchema::integer("year", 1987, 1996),
///     CubeSchema::categorical("type", &["home", "auto", "health"]),
/// ]);
/// let q = schema
///     .query()
///     .range("age", 37, 52).unwrap()
///     .eq("type", "auto").unwrap()
///     .build().unwrap();
/// let region = q.to_region(&schema.shape().unwrap()).unwrap();
/// assert_eq!(region.volume(), 16 * 10 * 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeSchema {
    attrs: Vec<Attribute>,
    by_name: HashMap<String, usize>,
    /// Lookup tables for categorical attributes (the paper's "hash tables
    /// may be required" overhead), built once.
    lookups: Vec<Option<HashMap<String, usize>>>,
}

impl CubeSchema {
    /// Builds a schema from attributes (order = dimension order).
    pub fn new(attrs: Vec<Attribute>) -> Self {
        let by_name = attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.clone(), i))
            .collect();
        let lookups = attrs
            .iter()
            .map(|a| match &a.domain {
                AttrDomain::Integer { .. } => None,
                AttrDomain::Categorical(values) => Some(
                    values
                        .iter()
                        .enumerate()
                        .map(|(i, v)| (v.clone(), i))
                        .collect(),
                ),
            })
            .collect();
        CubeSchema {
            attrs,
            by_name,
            lookups,
        }
    }

    /// Convenience constructor for an integer attribute.
    pub fn integer(name: &str, min: i64, max: i64) -> Attribute {
        Attribute {
            name: name.into(),
            domain: AttrDomain::Integer { min, max },
        }
    }

    /// Convenience constructor for a categorical attribute.
    pub fn categorical(name: &str, values: &[&str]) -> Attribute {
        Attribute {
            name: name.into(),
            domain: AttrDomain::Categorical(values.iter().map(|s| s.to_string()).collect()),
        }
    }

    /// The attributes in dimension order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }

    /// The cube shape implied by the attribute cardinalities.
    ///
    /// # Errors
    /// Propagates shape validation (e.g. an empty categorical domain).
    pub fn shape(&self) -> Result<Shape, ArrayError> {
        let dims: Vec<usize> = self.attrs.iter().map(|a| a.domain.cardinality()).collect();
        Shape::new(&dims)
    }

    /// Index of an attribute by name.
    pub fn dim_of(&self, name: &str) -> Result<usize, SchemaError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| SchemaError::UnknownAttribute(name.into()))
    }

    /// Rank of an integer attribute value.
    #[expect(
        clippy::indexing_slicing,
        reason = "dim_of returns an index of attrs, and lookups and every builder's sels hold one slot per attribute"
    )]
    pub fn rank_int(&self, name: &str, value: i64) -> Result<usize, SchemaError> {
        let dim = self.dim_of(name)?;
        match self.attrs[dim].domain {
            AttrDomain::Integer { min, max } => {
                if value < min || value > max {
                    Err(SchemaError::ValueOutOfDomain {
                        attr: name.into(),
                        value: value.to_string(),
                    })
                } else {
                    Ok((value - min) as usize)
                }
            }
            AttrDomain::Categorical(_) => Err(SchemaError::WrongKind { attr: name.into() }),
        }
    }

    /// Rank of a categorical attribute value (hash-table lookup).
    #[expect(
        clippy::indexing_slicing,
        reason = "dim_of returns an index of attrs, and lookups and every builder's sels hold one slot per attribute"
    )]
    pub fn rank_category(&self, name: &str, value: &str) -> Result<usize, SchemaError> {
        let dim = self.dim_of(name)?;
        match &self.lookups[dim] {
            Some(table) => table
                .get(value)
                .copied()
                .ok_or_else(|| SchemaError::ValueOutOfDomain {
                    attr: name.into(),
                    value: value.into(),
                }),
            None => Err(SchemaError::WrongKind { attr: name.into() }),
        }
    }

    /// Starts building an attribute-level query; unmentioned attributes
    /// default to `all`.
    pub fn query(&self) -> QueryBuilder<'_> {
        QueryBuilder {
            schema: self,
            sels: vec![DimSelection::All; self.attrs.len()],
        }
    }
}

/// Fluent builder translating attribute predicates into rank selections.
#[derive(Debug, Clone)]
pub struct QueryBuilder<'s> {
    schema: &'s CubeSchema,
    sels: Vec<DimSelection>,
}

#[expect(
    clippy::indexing_slicing,
    reason = "dim_of returns an index of attrs, and lookups and every builder's sels hold one slot per attribute"
)]
impl QueryBuilder<'_> {
    /// Range predicate on an integer attribute: `lo ≤ attr ≤ hi`.
    ///
    /// # Errors
    /// Unknown attribute, wrong kind, out-of-domain, inverted range.
    pub fn range(mut self, attr: &str, lo: i64, hi: i64) -> Result<Self, SchemaError> {
        if lo > hi {
            return Err(SchemaError::InvertedRange { attr: attr.into() });
        }
        let dim = self.schema.dim_of(attr)?;
        let rl = self.schema.rank_int(attr, lo)?;
        let rh = self.schema.rank_int(attr, hi)?;
        self.sels[dim] = DimSelection::span(rl, rh)?;
        Ok(self)
    }

    /// Equality predicate on an integer attribute.
    ///
    /// # Errors
    /// Unknown attribute, wrong kind, out-of-domain.
    pub fn eq_int(mut self, attr: &str, value: i64) -> Result<Self, SchemaError> {
        let dim = self.schema.dim_of(attr)?;
        let r = self.schema.rank_int(attr, value)?;
        self.sels[dim] = DimSelection::Single(r);
        Ok(self)
    }

    /// Equality predicate on a categorical attribute.
    ///
    /// # Errors
    /// Unknown attribute, wrong kind, unknown category.
    pub fn eq(mut self, attr: &str, value: &str) -> Result<Self, SchemaError> {
        let dim = self.schema.dim_of(attr)?;
        let r = self.schema.rank_category(attr, value)?;
        self.sels[dim] = DimSelection::Single(r);
        Ok(self)
    }

    /// Explicit `all` on an attribute (the default; useful for clarity).
    ///
    /// # Errors
    /// Unknown attribute.
    pub fn all(mut self, attr: &str) -> Result<Self, SchemaError> {
        let dim = self.schema.dim_of(attr)?;
        self.sels[dim] = DimSelection::All;
        Ok(self)
    }

    /// Finalizes into a rank-domain [`RangeQuery`].
    ///
    /// # Errors
    /// Propagates query validation.
    pub fn build(self) -> Result<RangeQuery, SchemaError> {
        Ok(RangeQuery::new(self.sels)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §1 insurance schema.
    fn insurance() -> CubeSchema {
        CubeSchema::new(vec![
            CubeSchema::integer("age", 1, 100),
            CubeSchema::integer("year", 1987, 1996),
            CubeSchema::categorical("state", &["CA", "NY", "TX", "WA"]),
            CubeSchema::categorical("type", &["home", "auto", "health"]),
        ])
    }

    #[test]
    fn shape_from_cardinalities() {
        let s = insurance();
        assert_eq!(s.shape().unwrap().dims(), &[100, 10, 4, 3]);
    }

    #[test]
    fn paper_query_via_builder() {
        // "age from 37 to 52, year from 1988 to 1996, all of U.S., auto".
        let s = insurance();
        let q = s
            .query()
            .range("age", 37, 52)
            .unwrap()
            .range("year", 1988, 1996)
            .unwrap()
            .eq("type", "auto")
            .unwrap()
            .build()
            .unwrap();
        let region = q.to_region(&s.shape().unwrap()).unwrap();
        assert_eq!(region.range(0).lo(), 36);
        assert_eq!(region.range(0).hi(), 51);
        assert_eq!(region.range(1).lo(), 1);
        assert_eq!(region.range(1).hi(), 9);
        assert_eq!(region.range(2).len(), 4); // all states
        assert_eq!(region.range(3).lo(), 1); // auto
        assert_eq!(region.volume(), 16 * 9 * 4);
    }

    #[test]
    fn rank_mappings() {
        let s = insurance();
        assert_eq!(s.rank_int("age", 1).unwrap(), 0);
        assert_eq!(s.rank_int("year", 1996).unwrap(), 9);
        assert_eq!(s.rank_category("state", "TX").unwrap(), 2);
    }

    #[test]
    fn errors_are_specific() {
        let s = insurance();
        assert!(matches!(
            s.rank_int("height", 3),
            Err(SchemaError::UnknownAttribute(_))
        ));
        assert!(matches!(
            s.rank_int("age", 0),
            Err(SchemaError::ValueOutOfDomain { .. })
        ));
        assert!(matches!(
            s.rank_int("state", 3),
            Err(SchemaError::WrongKind { .. })
        ));
        assert!(matches!(
            s.rank_category("state", "ZZ"),
            Err(SchemaError::ValueOutOfDomain { .. })
        ));
        assert!(matches!(
            s.query().range("age", 52, 37),
            Err(SchemaError::InvertedRange { .. })
        ));
    }

    #[test]
    fn singleton_collapse_in_builder() {
        let s = insurance();
        let q = s.query().range("age", 40, 40).unwrap().build().unwrap();
        assert_eq!(q.selections()[0], DimSelection::Single(39));
    }

    #[test]
    fn eq_int_predicate() {
        let s = insurance();
        let q = s.query().eq_int("year", 1995).unwrap().build().unwrap();
        assert_eq!(q.selections()[1], DimSelection::Single(8));
    }
}
