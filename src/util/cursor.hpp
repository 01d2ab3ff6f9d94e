/**
 * @file
 * The step of a cyclic cursor, shared by every page-order walk.
 */
#ifndef ARTMEM_UTIL_CURSOR_HPP
#define ARTMEM_UTIL_CURSOR_HPP

namespace artmem {

/**
 * Advance @p cursor over [0, n) by one, wrapping n - 1 to 0. For any
 * cursor below n this is cursor + 1 modulo n without the division: a
 * walk's next position depends on its last one, so a modulo step puts
 * a 64-bit divide on the critical path of every page it visits.
 */
template <typename Cursor, typename Count>
constexpr void
step_cursor(Cursor& cursor, Count n)
{
    if (++cursor == n)
        cursor = 0;
}

}  // namespace artmem

#endif  // ARTMEM_UTIL_CURSOR_HPP
