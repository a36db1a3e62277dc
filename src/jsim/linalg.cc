/**
 * @file
 * LU factorization with a sparse forward/back substitution.
 */

#include "linalg.hh"

#include <cmath>

#include "common/logging.hh"

namespace supernpu {
namespace jsim {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols)
    : _rows(rows), _cols(cols), _data(rows * cols, 0.0)
{
}

double &
DenseMatrix::at(std::size_t r, std::size_t c)
{
    SUPERNPU_ASSERT(r < _rows && c < _cols, "matrix index out of range");
    return _data[r * _cols + c];
}

double
DenseMatrix::at(std::size_t r, std::size_t c) const
{
    SUPERNPU_ASSERT(r < _rows && c < _cols, "matrix index out of range");
    return _data[r * _cols + c];
}

LuFactorization::LuFactorization(const DenseMatrix &matrix)
    : _size(matrix.rows()), _perm(_size), _diag(_size)
{
    SUPERNPU_ASSERT(matrix.rows() == matrix.cols(),
                    "LU requires a square matrix");

    // Dense packed factors, row-major; compressed below.
    std::vector<double> lu(_size * _size);
    for (std::size_t r = 0; r < _size; ++r) {
        _perm[r] = r;
        for (std::size_t c = 0; c < _size; ++c)
            lu[r * _size + c] = matrix.at(r, c);
    }

    for (std::size_t k = 0; k < _size; ++k) {
        // Partial pivot: find the largest magnitude in column k.
        std::size_t pivot = k;
        double best = std::fabs(lu[k * _size + k]);
        for (std::size_t r = k + 1; r < _size; ++r) {
            const double mag = std::fabs(lu[r * _size + k]);
            if (mag > best) {
                best = mag;
                pivot = r;
            }
        }
        SUPERNPU_ASSERT(best > 1e-300, "singular matrix in LU");
        if (pivot != k) {
            for (std::size_t c = 0; c < _size; ++c)
                std::swap(lu[k * _size + c], lu[pivot * _size + c]);
            std::swap(_perm[k], _perm[pivot]);
        }
        const double diag = lu[k * _size + k];
        for (std::size_t r = k + 1; r < _size; ++r) {
            const double factor = lu[r * _size + k] / diag;
            lu[r * _size + k] = factor;
            for (std::size_t c = k + 1; c < _size; ++c)
                lu[r * _size + c] -= factor * lu[k * _size + c];
        }
    }

    // Keep only the nonzero off-diagonal entries, row by row.
    _lowerBegin.resize(_size + 1);
    _upperBegin.resize(_size);
    for (std::size_t r = 0; r < _size; ++r) {
        _lowerBegin[r] = _entries.size();
        for (std::size_t c = 0; c < r; ++c) {
            if (lu[r * _size + c] != 0.0)
                _entries.push_back({c, lu[r * _size + c]});
        }
        _upperBegin[r] = _entries.size();
        for (std::size_t c = r + 1; c < _size; ++c) {
            if (lu[r * _size + c] != 0.0)
                _entries.push_back({c, lu[r * _size + c]});
        }
        _diag[r] = lu[r * _size + r];
    }
    _lowerBegin[_size] = _entries.size();
}

void
LuFactorization::solveInPlace(std::vector<double> &b,
                              std::vector<double> &work) const
{
    SUPERNPU_ASSERT(b.size() == _size, "rhs size mismatch");
    SUPERNPU_ASSERT(&b != &work, "rhs and workspace must differ");

    std::vector<double> &x = work;
    x.resize(_size);
    for (std::size_t r = 0; r < _size; ++r)
        x[r] = b[_perm[r]];

    // Forward substitution (unit lower-triangular).
    for (std::size_t r = 1; r < _size; ++r) {
        double acc = x[r];
        for (std::size_t e = _lowerBegin[r]; e < _upperBegin[r]; ++e)
            acc -= _entries[e].value * x[_entries[e].col];
        x[r] = acc;
    }

    // Back substitution.
    for (std::size_t ri = _size; ri-- > 0;) {
        double acc = x[ri];
        for (std::size_t e = _upperBegin[ri]; e < _lowerBegin[ri + 1];
             ++e)
            acc -= _entries[e].value * x[_entries[e].col];
        x[ri] = acc / _diag[ri];
    }

    b.swap(x);
}

} // namespace jsim
} // namespace supernpu
