/**
 * @file
 * Minimal linear algebra for the circuit simulator: a dense matrix
 * with LU factorization (partial pivoting) that is factored once and
 * solved through its nonzero factor entries across thousands of time
 * steps.
 */

#ifndef SUPERNPU_JSIM_LINALG_HH
#define SUPERNPU_JSIM_LINALG_HH

#include <cstddef>
#include <vector>

namespace supernpu {
namespace jsim {

/** Row-major dense square-capable matrix of doubles. */
class DenseMatrix
{
  public:
    DenseMatrix() = default;
    /** Construct a rows x cols zero matrix. */
    DenseMatrix(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return _rows; }
    std::size_t cols() const { return _cols; }

    /** Mutable element access. */
    double &at(std::size_t r, std::size_t c);
    /** Const element access. */
    double at(std::size_t r, std::size_t c) const;

  private:
    std::size_t _rows = 0;
    std::size_t _cols = 0;
    std::vector<double> _data;
};

/**
 * LU factorization with partial pivoting of a square matrix,
 * factored once and solved many times.
 *
 * The factorization is dense; the factors are then kept only as
 * their nonzero entries. A circuit's mass matrix is nearly diagonal
 * (capacitances couple only the two nodes of a floating junction),
 * so a solve costs O(n + nonzeros) instead of O(n^2).
 */
class LuFactorization
{
  public:
    /** Factor the given square matrix; panics when singular. */
    explicit LuFactorization(const DenseMatrix &matrix);

    /**
     * Solve A x = b in place: `b` becomes the solution. `work` is
     * caller-owned scratch of any content, resized to size(), so a
     * caller that keeps it across calls solves without allocating.
     *
     * Terms are accumulated in the order of a dense forward and back
     * substitution, skipping only products with a zero factor entry,
     * so for a finite `b` with no negative-zero entries the result
     * is bit-identical to the dense solve.
     */
    void solveInPlace(std::vector<double> &b,
                      std::vector<double> &work) const;

    std::size_t size() const { return _size; }

    /** Stored off-diagonal factor entries (L below, U above). */
    std::size_t offDiagonalNonzeros() const { return _entries.size(); }

  private:
    /** One nonzero off-diagonal factor entry of a row. */
    struct Entry
    {
        std::size_t col;
        double value;
    };

    std::size_t _size = 0;
    std::vector<std::size_t> _perm; // row permutation
    std::vector<double> _diag;      // U's diagonal
    /** Row r's L entries are _entries[_lowerBegin[r] ..
     *  _upperBegin[r]), its U entries _entries[_upperBegin[r] ..
     *  _lowerBegin[r + 1]), each in ascending column order. */
    std::vector<Entry> _entries;
    std::vector<std::size_t> _lowerBegin; // size() + 1 offsets
    std::vector<std::size_t> _upperBegin; // size() offsets
};

} // namespace jsim
} // namespace supernpu

#endif // SUPERNPU_JSIM_LINALG_HH
