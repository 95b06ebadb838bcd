#include "widget/widget.hh"

int Widget::live() const { return helper() + secret(); }
int Widget::perfHook() const { return 1; }
int Widget::onlyTested() const { return 2; }
int Widget::allowedHook() const { return 3; }
int Widget::helper() const { return 4; }
int Widget::viaArrow() const { return 6; }
int Widget::reading() const { return 7; }
int Widget::secret() const { return 5; }

int
widgetCount()
{
    return 1;
}
